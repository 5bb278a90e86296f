// SSSE3 split-nibble-table GF(2^8) region kernels. Compiled with -mssse3 by
// CMake (the rest of the build stays at the base ISA); only reachable through
// runtime dispatch after __builtin_cpu_supports("ssse3") confirms the CPU.
//
// The kernel is the classic PSHUFB pair lookup: for coefficient c the
// product of every byte s is lo[c][s & 15] ^ hi[c][s >> 4], so one 16-byte
// step costs two shuffles and three XORs. Heads/tails (and sub-16-byte
// regions) fall back to the shared full product table, which is bit-exact by
// construction.

#if defined(__SSSE3__)

#include <emmintrin.h>
#include <tmmintrin.h>

#include <algorithm>
#include <cstring>

#include "dfs/ec/gf256_kernels_impl.h"

namespace dfs::ec::gf256::detail {

namespace {

void ssse3_xor_region(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t len) {
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, s));
  }
  for (; i < len; ++i) dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
}

struct CoeffTables {
  __m128i lo;
  __m128i hi;
};

inline CoeffTables load_tables(std::uint8_t c) {
  const NibbleTables& nt = nibble_tables();
  return CoeffTables{
      _mm_load_si128(reinterpret_cast<const __m128i*>(nt.lo[c])),
      _mm_load_si128(reinterpret_cast<const __m128i*>(nt.hi[c]))};
}

inline __m128i mul_block(__m128i s, const CoeffTables& t, __m128i nibble) {
  const __m128i lo = _mm_shuffle_epi8(t.lo, _mm_and_si128(s, nibble));
  const __m128i hi = _mm_shuffle_epi8(
      t.hi, _mm_and_si128(_mm_srli_epi64(s, 4), nibble));
  return _mm_xor_si128(lo, hi);
}

void ssse3_mul_region(std::uint8_t* dst, const std::uint8_t* src,
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
  const __m128i nibble = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     mul_block(s, t, nibble));
  }
  const std::uint8_t* row = full_table().mul[c];
  for (; i < len; ++i) dst[i] = row[src[i]];
}

void ssse3_mul_add_region(std::uint8_t* dst, const std::uint8_t* src,
                          std::uint8_t c, std::size_t len) {
  if (c == 0) return;
  if (c == 1) {
    ssse3_xor_region(dst, src, len);
    return;
  }
  const CoeffTables t = load_tables(c);
  const __m128i nibble = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, mul_block(s, t, nibble)));
  }
  const std::uint8_t* row = full_table().mul[c];
  for (; i < len; ++i) dst[i] = static_cast<std::uint8_t>(dst[i] ^ row[src[i]]);
}

// Fused multi-source kernel: a 32-byte destination chunk stays in registers
// while every source's contribution is accumulated into it, so dst is read
// and written once per chunk instead of once per source. Each pass first
// sorts up to kMaxSourcesPerPass sources into plain XORs (c == 1) and table
// products (c >= 2), dropping c == 0, and loads every product's nibble
// tables once; GF addition is XOR, so the order of the terms does not change
// a byte. More sources take further passes over dst.
constexpr std::size_t kMaxSourcesPerPass = 16;

void ssse3_mul_add_region_multi(std::uint8_t* dst,
                                const std::uint8_t* const* srcs,
                                const std::uint8_t* coeffs, std::size_t count,
                                std::size_t len) {
  const __m128i nibble = _mm_set1_epi8(0x0f);
  const std::size_t body = len - len % 32;
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
    for (std::size_t i = 0; i < body; i += 32) {
      __m128i acc0 = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
      __m128i acc1 =
          _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i + 16));
      for (std::size_t j = 0; j < num_xors; ++j) {
        acc0 = _mm_xor_si128(
            acc0,
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(xors[j] + i)));
        acc1 = _mm_xor_si128(
            acc1, _mm_loadu_si128(
                      reinterpret_cast<const __m128i*>(xors[j] + i + 16)));
      }
      for (std::size_t j = 0; j < num_muls; ++j) {
        const __m128i s0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(muls[j] + i));
        const __m128i s1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(muls[j] + i + 16));
        acc0 = _mm_xor_si128(acc0, mul_block(s0, tables[j], nibble));
        acc1 = _mm_xor_si128(acc1, mul_block(s1, tables[j], nibble));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), acc0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), acc1);
    }
  }
  if (body < len) {
    for (std::size_t j = 0; j < count; ++j) {
      ssse3_mul_add_region(dst + body, srcs[j] + body, coeffs[j], len - body);
    }
  }
}

void ssse3_xor_region_multi(std::uint8_t* dst, const std::uint8_t* const* srcs,
                            std::size_t count, std::size_t len) {
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    __m128i acc0 = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    __m128i acc1 = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i + 16));
    for (std::size_t j = 0; j < count; ++j) {
      acc0 = _mm_xor_si128(
          acc0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[j] + i)));
      acc1 = _mm_xor_si128(
          acc1, _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(srcs[j] + i + 16)));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), acc0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 16), acc1);
  }
  if (i < len) {
    for (std::size_t j = 0; j < count; ++j) {
      ssse3_xor_region(dst + i, srcs[j] + i, len - i);
    }
  }
}

constexpr KernelOps kSsse3Ops{ssse3_mul_region, ssse3_mul_add_region,
                              ssse3_xor_region, ssse3_mul_add_region_multi,
                              ssse3_xor_region_multi};

}  // namespace

const KernelOps& ssse3_kernel_ops() { return kSsse3Ops; }

}  // namespace dfs::ec::gf256::detail

#endif  // defined(__SSSE3__)
