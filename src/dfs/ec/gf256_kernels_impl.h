#pragma once

#include <cstddef>
#include <cstdint>

#include "dfs/ec/gf256_kernels.h"

// Internal glue between the dispatcher (gf256_kernels.cpp) and the per-ISA
// translation units (gf256_kernels_ssse3.cpp, gf256_kernels_avx2.cpp). Those
// two instantiate the one kernel body in gf256_kernels_simd.h with their own
// register traits, are compiled with their own -m flags, and export only the
// vtables below; nothing else they compile may have external linkage (see
// the linkage rule in gf256_kernels_simd.h).

namespace dfs::ec::gf256::detail {

/// Full 256x256 product table: mul[c][v] = c * v. 64 KiB, built once.
/// Shared by the table backend, by gf256::mul_add_region's former per-call
/// row rebuild, and by the SIMD backends' unaligned head/tail handling.
struct FullTable {
  std::uint8_t mul[256][256];
};
const FullTable& full_table();

/// Split nibble tables: lo[c][v] = c * v and hi[c][v] = c * (v << 4) for
/// v in [0, 16). product = lo[c][s & 15] ^ hi[c][s >> 4] — exactly the two
/// PSHUFB lookups of the ISA-L / Jerasure-SIMD kernel. 8 KiB, built once.
/// Rows are 16-byte aligned so they load straight into vector registers.
struct NibbleTables {
  alignas(16) std::uint8_t lo[256][16];
  alignas(16) std::uint8_t hi[256][16];
};
const NibbleTables& nibble_tables();

/// Vtables exported by the per-ISA translation units. Only referenced when
/// the matching DFS_GF_HAVE_* macro is defined by the build.
const KernelOps& ssse3_kernel_ops();
const KernelOps& avx2_kernel_ops();

}  // namespace dfs::ec::gf256::detail
