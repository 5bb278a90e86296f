// AVX2 split-nibble-table GF(2^8) region kernels. Compiled with -mavx2 by
// CMake; only reachable through runtime dispatch after
// __builtin_cpu_supports("avx2") confirms the CPU.
//
// Same split-table scheme as the SSSE3 backend, but VPSHUFB shuffles both
// 128-bit lanes at once (the 16-entry table is broadcast to both lanes), so
// one step covers 32 bytes; the fused multi-source kernel holds a 64-byte
// destination chunk in registers across all k coefficient rows.

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "dfs/ec/gf256_kernels_impl.h"

namespace dfs::ec::gf256::detail {

namespace {

void avx2_xor_region(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t len) {
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, s));
  }
  for (; i < len; ++i) dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
}

struct CoeffTables {
  __m256i lo;
  __m256i hi;
};

inline CoeffTables load_tables(std::uint8_t c) {
  const NibbleTables& nt = nibble_tables();
  return CoeffTables{
      _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(nt.lo[c]))),
      _mm256_broadcastsi128_si256(
          _mm_load_si128(reinterpret_cast<const __m128i*>(nt.hi[c])))};
}

inline __m256i mul_block(__m256i s, const CoeffTables& t, __m256i nibble) {
  const __m256i lo = _mm256_shuffle_epi8(t.lo, _mm256_and_si256(s, nibble));
  const __m256i hi = _mm256_shuffle_epi8(
      t.hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), nibble));
  return _mm256_xor_si256(lo, hi);
}

void avx2_mul_region(std::uint8_t* dst, const std::uint8_t* src,
                     std::uint8_t c, std::size_t len) {
  if (len == 0) return;  // keep memset/memmove off possibly-null buffers
  if (c == 0) {
    std::memset(dst, 0, len);
    return;
  }
  if (c == 1) {
    std::memmove(dst, src, len);
    return;
  }
  const CoeffTables t = load_tables(c);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        mul_block(s, t, nibble));
  }
  const std::uint8_t* row = full_table().mul[c];
  for (; i < len; ++i) dst[i] = row[src[i]];
}

void avx2_mul_add_region(std::uint8_t* dst, const std::uint8_t* src,
                         std::uint8_t c, std::size_t len) {
  if (c == 0) return;
  if (c == 1) {
    avx2_xor_region(dst, src, len);
    return;
  }
  const CoeffTables t = load_tables(c);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, mul_block(s, t, nibble)));
  }
  const std::uint8_t* row = full_table().mul[c];
  for (; i < len; ++i) dst[i] = static_cast<std::uint8_t>(dst[i] ^ row[src[i]]);
}

// Fused multi-source kernel: a 64-byte destination chunk lives in two ymm
// accumulators across all k coefficient rows, so dst traffic is once per
// chunk instead of once per source — the encode inner loop of the RS family.
// Each pass first sorts up to kMaxSourcesPerPass sources into plain XORs
// (c == 1) and table products (c >= 2), dropping c == 0, and loads every
// product's nibble tables once; GF addition is XOR, so the order of the
// terms does not change a byte. More sources take further passes over dst.
constexpr std::size_t kMaxSourcesPerPass = 16;

void avx2_mul_add_region_multi(std::uint8_t* dst,
                               const std::uint8_t* const* srcs,
                               const std::uint8_t* coeffs, std::size_t count,
                               std::size_t len) {
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const std::size_t body = len - len % 64;
  for (std::size_t first = 0; first < count; first += kMaxSourcesPerPass) {
    const std::size_t last = std::min(count, first + kMaxSourcesPerPass);
    const std::uint8_t* xors[kMaxSourcesPerPass] = {};
    const std::uint8_t* muls[kMaxSourcesPerPass] = {};
    CoeffTables tables[kMaxSourcesPerPass] = {};
    std::size_t num_xors = 0;
    std::size_t num_muls = 0;
    for (std::size_t j = first; j < last; ++j) {
      if (coeffs[j] == 1) {
        xors[num_xors++] = srcs[j];
      } else if (coeffs[j] != 0) {
        muls[num_muls] = srcs[j];
        tables[num_muls++] = load_tables(coeffs[j]);
      }
    }
    for (std::size_t i = 0; i < body; i += 64) {
      __m256i acc0 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
      __m256i acc1 =
          _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i + 32));
      for (std::size_t j = 0; j < num_xors; ++j) {
        acc0 = _mm256_xor_si256(
            acc0,
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xors[j] + i)));
        acc1 = _mm256_xor_si256(
            acc1, _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(xors[j] + i + 32)));
      }
      for (std::size_t j = 0; j < num_muls; ++j) {
        const __m256i s0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(muls[j] + i));
        const __m256i s1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(muls[j] + i + 32));
        acc0 = _mm256_xor_si256(acc0, mul_block(s0, tables[j], nibble));
        acc1 = _mm256_xor_si256(acc1, mul_block(s1, tables[j], nibble));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), acc1);
    }
  }
  if (body < len) {
    for (std::size_t j = 0; j < count; ++j) {
      avx2_mul_add_region(dst + body, srcs[j] + body, coeffs[j], len - body);
    }
  }
}

void avx2_xor_region_multi(std::uint8_t* dst, const std::uint8_t* const* srcs,
                           std::size_t count, std::size_t len) {
  std::size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    __m256i acc0 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    __m256i acc1 =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i + 32));
    for (std::size_t j = 0; j < count; ++j) {
      acc0 = _mm256_xor_si256(
          acc0,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i)));
      acc1 = _mm256_xor_si256(
          acc1, _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(srcs[j] + i + 32)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), acc1);
  }
  if (i < len) {
    for (std::size_t j = 0; j < count; ++j) {
      avx2_xor_region(dst + i, srcs[j] + i, len - i);
    }
  }
}

constexpr KernelOps kAvx2Ops{avx2_mul_region, avx2_mul_add_region,
                             avx2_xor_region, avx2_mul_add_region_multi,
                             avx2_xor_region_multi};

}  // namespace

const KernelOps& avx2_kernel_ops() { return kAvx2Ops; }

}  // namespace dfs::ec::gf256::detail

#endif  // defined(__AVX2__)
