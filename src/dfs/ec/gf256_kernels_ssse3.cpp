// SSSE3 instance of the split-nibble GF(2^8) region kernels
// (gf256_kernels_simd.h): PSHUFB over 16-byte registers. Compiled with
// -mssse3 by CMake (the rest of the build stays at the base ISA); only
// reachable through runtime dispatch after __builtin_cpu_supports("ssse3")
// confirms the CPU.

#if defined(__SSSE3__)

#include <emmintrin.h>
#include <tmmintrin.h>

#include "dfs/ec/gf256_kernels_simd.h"

namespace dfs::ec::gf256::detail {

namespace {

struct Ssse3 {
  using Reg = __m128i;
  static constexpr std::size_t kBytes = 16;

  static Reg loadu(const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu(std::uint8_t* p, Reg r) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), r);
  }
  static Reg bxor(Reg a, Reg b) { return _mm_xor_si128(a, b); }
  static Reg band(Reg a, Reg b) { return _mm_and_si128(a, b); }
  static Reg srli4(Reg a) { return _mm_srli_epi64(a, 4); }
  static Reg shuffle(Reg t, Reg idx) { return _mm_shuffle_epi8(t, idx); }
  static Reg splat_0f() { return _mm_set1_epi8(0x0f); }
  static Reg table_row(const std::uint8_t* row) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(row));
  }
};

}  // namespace

const KernelOps& ssse3_kernel_ops() { return SimdKernels<Ssse3>::kOps; }

}  // namespace dfs::ec::gf256::detail

#endif  // defined(__SSSE3__)
