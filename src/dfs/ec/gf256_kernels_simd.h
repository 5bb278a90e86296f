#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "dfs/ec/gf256_kernels_impl.h"

// The split-nibble GF(2^8) region kernels, written once for any vector width.
// Each per-ISA translation unit (gf256_kernels_ssse3.cpp, _avx2.cpp) defines
// a traits struct V in an anonymous namespace and exports
// SimdKernels<V>::kOps. V provides the register type Reg, its width kBytes,
// unaligned loadu/storeu, bxor, band, srli4 (shift right 4 bits within 64-bit
// lanes), shuffle (per-16-byte-lane PSHUFB), splat_0f, and table_row, which
// loads a 16-byte aligned nibble-table row into every 16-byte lane of a Reg.
//
// For coefficient c the product of every byte s is lo[c][s & 15] ^
// hi[c][s >> 4], so one step costs two shuffles and three XORs. Tails shorter
// than a step use the shared full product table, bit-exact by construction.
//
// Linkage rule: each including translation unit compiles this header under
// its own -m flag, so every entity in it must be a template on V (V has
// internal linkage, so each instantiation does too) or sit in an anonymous
// namespace. An inline entity with external linkage would be emitted once
// per ISA and the linker would keep any one copy, so AVX2 code could end up
// on the SSSE3 or base path. For the same reason no standard-library
// template (std::min and the like) is called here.

namespace dfs::ec::gf256::detail {

template <class V>
struct SimdKernels {
  using Reg = typename V::Reg;
  static constexpr std::size_t W = V::kBytes;

  // Fused multi-source passes take at most this many sources each.
  static constexpr std::size_t kMaxSourcesPerPass = 16;

  struct CoeffTables {
    Reg lo;
    Reg hi;
  };

  static CoeffTables load_tables(std::uint8_t c) {
    const NibbleTables& nt = nibble_tables();
    return CoeffTables{V::table_row(nt.lo[c]), V::table_row(nt.hi[c])};
  }

  static Reg mul_block(Reg s, const CoeffTables& t, Reg nibble) {
    return V::bxor(V::shuffle(t.lo, V::band(s, nibble)),
                   V::shuffle(t.hi, V::band(V::srli4(s), nibble)));
  }

  static void xor_region(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t len) {
    std::size_t i = 0;
    for (; i + W <= len; i += W) {
      V::storeu(dst + i, V::bxor(V::loadu(dst + i), V::loadu(src + i)));
    }
    for (; i < len; ++i) dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
  }

  static void mul_region(std::uint8_t* dst, const std::uint8_t* src,
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
    const Reg nibble = V::splat_0f();
    std::size_t i = 0;
    for (; i + W <= len; i += W) {
      V::storeu(dst + i, mul_block(V::loadu(src + i), t, nibble));
    }
    const std::uint8_t* row = full_table().mul[c];
    for (; i < len; ++i) dst[i] = row[src[i]];
  }

  static void mul_add_region(std::uint8_t* dst, const std::uint8_t* src,
                             std::uint8_t c, std::size_t len) {
    if (c == 0) return;
    if (c == 1) {
      xor_region(dst, src, len);
      return;
    }
    const CoeffTables t = load_tables(c);
    const Reg nibble = V::splat_0f();
    std::size_t i = 0;
    for (; i + W <= len; i += W) {
      V::storeu(dst + i, V::bxor(V::loadu(dst + i),
                                 mul_block(V::loadu(src + i), t, nibble)));
    }
    const std::uint8_t* row = full_table().mul[c];
    for (; i < len; ++i) {
      dst[i] = static_cast<std::uint8_t>(dst[i] ^ row[src[i]]);
    }
  }

  // Fused multi-source kernel: a 2W-byte destination chunk stays in two
  // accumulators while every source's contribution is added to it, so dst is
  // read and written once per chunk instead of once per source. Each pass
  // first sorts up to kMaxSourcesPerPass sources into plain XORs (c == 1) and
  // table products (c >= 2), dropping c == 0, and loads every product's
  // nibble tables once; GF addition is XOR, so the order of the terms does
  // not change a byte. More sources take further passes over dst.
  static void mul_add_region_multi(std::uint8_t* dst,
                                   const std::uint8_t* const* srcs,
                                   const std::uint8_t* coeffs,
                                   std::size_t count, std::size_t len) {
    const Reg nibble = V::splat_0f();
    const std::size_t body = len - len % (2 * W);
    for (std::size_t first = 0; first < count; first += kMaxSourcesPerPass) {
      const std::size_t last = first + kMaxSourcesPerPass < count
                                   ? first + kMaxSourcesPerPass
                                   : count;
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
      for (std::size_t i = 0; i < body; i += 2 * W) {
        Reg acc0 = V::loadu(dst + i);
        Reg acc1 = V::loadu(dst + i + W);
        for (std::size_t j = 0; j < num_xors; ++j) {
          acc0 = V::bxor(acc0, V::loadu(xors[j] + i));
          acc1 = V::bxor(acc1, V::loadu(xors[j] + i + W));
        }
        for (std::size_t j = 0; j < num_muls; ++j) {
          const Reg s0 = V::loadu(muls[j] + i);
          const Reg s1 = V::loadu(muls[j] + i + W);
          acc0 = V::bxor(acc0, mul_block(s0, tables[j], nibble));
          acc1 = V::bxor(acc1, mul_block(s1, tables[j], nibble));
        }
        V::storeu(dst + i, acc0);
        V::storeu(dst + i + W, acc1);
      }
    }
    if (body < len) {
      for (std::size_t j = 0; j < count; ++j) {
        mul_add_region(dst + body, srcs[j] + body, coeffs[j], len - body);
      }
    }
  }

  static void xor_region_multi(std::uint8_t* dst,
                               const std::uint8_t* const* srcs,
                               std::size_t count, std::size_t len) {
    std::size_t i = 0;
    for (; i + 2 * W <= len; i += 2 * W) {
      Reg acc0 = V::loadu(dst + i);
      Reg acc1 = V::loadu(dst + i + W);
      for (std::size_t j = 0; j < count; ++j) {
        acc0 = V::bxor(acc0, V::loadu(srcs[j] + i));
        acc1 = V::bxor(acc1, V::loadu(srcs[j] + i + W));
      }
      V::storeu(dst + i, acc0);
      V::storeu(dst + i + W, acc1);
    }
    if (i < len) {
      for (std::size_t j = 0; j < count; ++j) {
        xor_region(dst + i, srcs[j] + i, len - i);
      }
    }
  }

  static constexpr KernelOps kOps{mul_region, mul_add_region, xor_region,
                                  mul_add_region_multi, xor_region_multi};
};

}  // namespace dfs::ec::gf256::detail
