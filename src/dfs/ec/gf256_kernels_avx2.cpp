// AVX2 instance of the split-nibble GF(2^8) region kernels
// (gf256_kernels_simd.h): VPSHUFB shuffles both 128-bit lanes at once, so
// each 16-entry table row is broadcast to both lanes and one step covers 32
// bytes; the fused multi-source kernel holds a 64-byte destination chunk in
// two ymm accumulators. Compiled with -mavx2 by CMake; only reachable through
// runtime dispatch after __builtin_cpu_supports("avx2") confirms the CPU.

#if defined(__AVX2__)

#include <immintrin.h>

#include "dfs/ec/gf256_kernels_simd.h"

namespace dfs::ec::gf256::detail {

namespace {

struct Avx2 {
  using Reg = __m256i;
  static constexpr std::size_t kBytes = 32;

  static Reg loadu(const std::uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(std::uint8_t* p, Reg r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), r);
  }
  static Reg bxor(Reg a, Reg b) { return _mm256_xor_si256(a, b); }
  static Reg band(Reg a, Reg b) { return _mm256_and_si256(a, b); }
  static Reg srli4(Reg a) { return _mm256_srli_epi64(a, 4); }
  static Reg shuffle(Reg t, Reg idx) { return _mm256_shuffle_epi8(t, idx); }
  static Reg splat_0f() { return _mm256_set1_epi8(0x0f); }
  static Reg table_row(const std::uint8_t* row) {
    return _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(row)));
  }
};

}  // namespace

const KernelOps& avx2_kernel_ops() { return SimdKernels<Avx2>::kOps; }

}  // namespace dfs::ec::gf256::detail

#endif  // defined(__AVX2__)
