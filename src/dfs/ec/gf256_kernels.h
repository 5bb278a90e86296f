#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

// Vectorized GF(2^8) region-kernel subsystem. Every bulk byte operation of
// the erasure-coding layer (encode, degraded-read reconstruction, repair,
// bit-matrix XOR schedules) funnels through the kernels declared here; the
// implementation is selected once at runtime from the backends compiled into
// the binary:
//
//   scalar  log/exp-table reference: one field multiply per byte. Never
//           chosen by auto dispatch — it exists as the bit-exactness oracle
//           every other backend is tested against, and as the forced-fallback
//           CI leg (DFS_GF_BACKEND=scalar).
//   table   precomputed 256x256 product table: one load+xor per byte with no
//           per-call row rebuild. The portable fallback.
//   ssse3   split nibble tables via PSHUFB, 16 bytes per step.
//   avx2    split nibble tables via VPSHUFB, 32 bytes per step.
//
// The two SIMD backends are one kernel body (gf256_kernels_simd.h)
// instantiated per ISA with that ISA's register traits; both keep a
// two-register destination chunk live across every source of the fused
// multi-source kernels.
//
// Dispatch order is avx2 > ssse3 > table, gated by CPUID at first use. The
// DFS_GF_BACKEND environment variable (scalar | table | ssse3 | avx2 | auto)
// overrides it for testing; an unsupported request falls back to auto with a
// one-line warning on stderr.
//
// All backends are bit-identical: GF(2^8) arithmetic is exact, so a backend
// switch can never change any encoded byte, golden-corpus artifact, or
// simulation result — only the throughput.
//
// Aliasing rules: dst == src (exact alias) is allowed for mul_region,
// mul_add_region, and xor_region; partial overlap is undefined. For the
// *_multi kernels dst must not alias any source (the destination strip is
// accumulated while sources are re-read), while sources may alias each other.

namespace dfs::ec::gf256 {

enum class Backend : int { kScalar = 0, kTable = 1, kSsse3 = 2, kAvx2 = 3 };
inline constexpr int kBackendCount = 4;

/// The kernel vtable one backend provides. All lengths are in bytes; any
/// length (including 0) is valid and unaligned pointers are handled.
struct KernelOps {
  /// dst[i] = c * src[i]
  void (*mul_region)(std::uint8_t* dst, const std::uint8_t* src,
                     std::uint8_t c, std::size_t len);
  /// dst[i] ^= c * src[i]
  void (*mul_add_region)(std::uint8_t* dst, const std::uint8_t* src,
                         std::uint8_t c, std::size_t len);
  /// dst[i] ^= src[i]
  void (*xor_region)(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t len);
  /// dst[i] ^= XOR_j coeffs[j] * srcs[j][i] — one pass over the destination
  /// applying every coefficient row (the encode/decode inner loop).
  void (*mul_add_region_multi)(std::uint8_t* dst,
                               const std::uint8_t* const* srcs,
                               const std::uint8_t* coeffs, std::size_t count,
                               std::size_t len);
  /// dst[i] ^= XOR_j srcs[j][i] — the bit-matrix (CRS) schedule kernel.
  void (*xor_region_multi)(std::uint8_t* dst, const std::uint8_t* const* srcs,
                           std::size_t count, std::size_t len);
};

/// Lower-case stable name ("scalar", "table", "ssse3", "avx2").
const char* backend_name(Backend b);

/// True if the backend's code is built into this binary (CMake compiled the
/// per-ISA translation unit). scalar and table are always compiled.
bool backend_compiled(Backend b);

/// True if the backend is compiled AND the running CPU supports it.
bool backend_supported(Backend b);

/// Every backend compiled into this binary, in ascending Backend order.
std::vector<Backend> compiled_backends();

/// The backend currently routing the region kernels.
Backend active_backend();

/// Switch the active backend; returns false (and changes nothing) if the
/// backend is not supported on this build/CPU. Intended for tests and
/// benchmarks; concurrent region calls during a switch are not supported.
bool set_backend(Backend b);

/// Drop any forced backend and re-run auto dispatch (honoring
/// DFS_GF_BACKEND), as if the process had just started.
void reset_backend();

/// The active backend's kernel vtable.
const KernelOps& kernels();

/// Convenience wrappers through the active backend (see KernelOps).
void mul_add_region_multi(std::uint8_t* dst, const std::uint8_t* const* srcs,
                          const std::uint8_t* coeffs, std::size_t count,
                          std::size_t len);
void xor_region_multi(std::uint8_t* dst, const std::uint8_t* const* srcs,
                      std::size_t count, std::size_t len);

}  // namespace dfs::ec::gf256
