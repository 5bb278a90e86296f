#include "dfs/ec/gf256_kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "dfs/ec/gf256.h"
#include "dfs/ec/gf256_kernels_impl.h"

namespace dfs::ec::gf256 {

namespace detail {

const FullTable& full_table() {
  static const FullTable t = [] {
    FullTable ft;
    for (int c = 0; c < 256; ++c) {
      for (int v = 0; v < 256; ++v) {
        ft.mul[c][v] = mul(static_cast<std::uint8_t>(c),
                           static_cast<std::uint8_t>(v));
      }
    }
    return ft;
  }();
  return t;
}

const NibbleTables& nibble_tables() {
  static const NibbleTables t = [] {
    NibbleTables nt;
    for (int c = 0; c < 256; ++c) {
      for (int v = 0; v < 16; ++v) {
        nt.lo[c][v] = mul(static_cast<std::uint8_t>(c),
                          static_cast<std::uint8_t>(v));
        nt.hi[c][v] = mul(static_cast<std::uint8_t>(c),
                          static_cast<std::uint8_t>(v << 4));
      }
    }
    return nt;
  }();
  return t;
}

}  // namespace detail

namespace {

// --- scalar reference backend ----------------------------------------------
// One log/exp multiply per byte, no precomputed rows: trivially correct, and
// therefore the oracle the equivalence tests compare every backend against.

void scalar_mul_region(std::uint8_t* dst, const std::uint8_t* src,
                       std::uint8_t c, std::size_t len) {
  if (len == 0) return;  // keep memset off possibly-null empty buffers
  if (c == 0) {
    std::memset(dst, 0, len);
    return;
  }
  for (std::size_t i = 0; i < len; ++i) dst[i] = mul(c, src[i]);
}

void scalar_mul_add_region(std::uint8_t* dst, const std::uint8_t* src,
                           std::uint8_t c, std::size_t len) {
  if (c == 0) return;
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ mul(c, src[i]));
  }
}

void scalar_xor_region(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
  }
}

void scalar_mul_add_region_multi(std::uint8_t* dst,
                                 const std::uint8_t* const* srcs,
                                 const std::uint8_t* coeffs, std::size_t count,
                                 std::size_t len) {
  for (std::size_t j = 0; j < count; ++j) {
    scalar_mul_add_region(dst, srcs[j], coeffs[j], len);
  }
}

void scalar_xor_region_multi(std::uint8_t* dst,
                             const std::uint8_t* const* srcs,
                             std::size_t count, std::size_t len) {
  for (std::size_t j = 0; j < count; ++j) scalar_xor_region(dst, srcs[j], len);
}

constexpr KernelOps kScalarOps{scalar_mul_region, scalar_mul_add_region,
                               scalar_xor_region, scalar_mul_add_region_multi,
                               scalar_xor_region_multi};

// --- full-table backend -----------------------------------------------------
// The portable fast path: one shared 64 KiB product table, one load+xor per
// byte, and the multi kernels walk the destination in L1-sized strips so a
// k-source accumulation reads and writes each dst cache line once per strip
// instead of streaming the whole region k times.

// Strip that keeps dst + one src comfortably inside a 32 KiB L1d alongside
// the hot table rows.
constexpr std::size_t kStrip = 8192;

void table_xor_region(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t len) {
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t d, s;
    std::memcpy(&d, dst + i, 8);
    std::memcpy(&s, src + i, 8);
    d ^= s;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < len; ++i) dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
}

void table_mul_region(std::uint8_t* dst, const std::uint8_t* src,
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
  const std::uint8_t* row = detail::full_table().mul[c];
  for (std::size_t i = 0; i < len; ++i) dst[i] = row[src[i]];
}

void table_mul_add_region(std::uint8_t* dst, const std::uint8_t* src,
                          std::uint8_t c, std::size_t len) {
  if (c == 0) return;
  if (c == 1) {
    table_xor_region(dst, src, len);
    return;
  }
  const std::uint8_t* row = detail::full_table().mul[c];
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ row[src[i]]);
  }
}

void table_mul_add_region_multi(std::uint8_t* dst,
                                const std::uint8_t* const* srcs,
                                const std::uint8_t* coeffs, std::size_t count,
                                std::size_t len) {
  for (std::size_t off = 0; off < len; off += kStrip) {
    const std::size_t chunk = len - off < kStrip ? len - off : kStrip;
    for (std::size_t j = 0; j < count; ++j) {
      table_mul_add_region(dst + off, srcs[j] + off, coeffs[j], chunk);
    }
  }
}

void table_xor_region_multi(std::uint8_t* dst, const std::uint8_t* const* srcs,
                            std::size_t count, std::size_t len) {
  for (std::size_t off = 0; off < len; off += kStrip) {
    const std::size_t chunk = len - off < kStrip ? len - off : kStrip;
    for (std::size_t j = 0; j < count; ++j) {
      table_xor_region(dst + off, srcs[j] + off, chunk);
    }
  }
}

constexpr KernelOps kTableOps{table_mul_region, table_mul_add_region,
                              table_xor_region, table_mul_add_region_multi,
                              table_xor_region_multi};

// --- dispatch ---------------------------------------------------------------

bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar:
    case Backend::kTable:
      return true;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
    case Backend::kSsse3:
      return __builtin_cpu_supports("ssse3") != 0;
    case Backend::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#else
    case Backend::kSsse3:
    case Backend::kAvx2:
      return false;
#endif
  }
  return false;
}

const KernelOps* ops_for(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &kScalarOps;
    case Backend::kTable:
      return &kTableOps;
    case Backend::kSsse3:
#if defined(DFS_GF_HAVE_SSSE3)
      return &detail::ssse3_kernel_ops();
#else
      return nullptr;
#endif
    case Backend::kAvx2:
#if defined(DFS_GF_HAVE_AVX2)
      return &detail::avx2_kernel_ops();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

Backend auto_backend() {
  if (backend_supported(Backend::kAvx2)) return Backend::kAvx2;
  if (backend_supported(Backend::kSsse3)) return Backend::kSsse3;
  return Backend::kTable;
}

bool parse_backend(const char* s, Backend* out, bool* is_auto) {
  const std::string v(s);
  *is_auto = false;
  if (v == "auto") {
    *is_auto = true;
    return true;
  }
  for (int i = 0; i < kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (v == backend_name(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

Backend initial_backend() {
  const char* env = std::getenv("DFS_GF_BACKEND");
  if (env != nullptr && env[0] != '\0') {
    Backend requested = Backend::kTable;
    bool is_auto = false;
    if (!parse_backend(env, &requested, &is_auto)) {
      std::fprintf(stderr,
                   "gf256: unknown DFS_GF_BACKEND=%s "
                   "(scalar|table|ssse3|avx2|auto); using auto dispatch\n",
                   env);
    } else if (is_auto) {
      // fall through to auto dispatch
    } else if (!backend_supported(requested)) {
      std::fprintf(stderr,
                   "gf256: DFS_GF_BACKEND=%s not supported by this "
                   "build/CPU; using auto dispatch\n",
                   env);
    } else {
      return requested;
    }
  }
  return auto_backend();
}

std::mutex g_backend_mutex;
std::atomic<const KernelOps*> g_ops{nullptr};
std::atomic<int> g_backend{-1};

const KernelOps* ensure_init() {
  const KernelOps* p = g_ops.load(std::memory_order_acquire);
  if (p != nullptr) return p;
  std::lock_guard<std::mutex> lock(g_backend_mutex);
  p = g_ops.load(std::memory_order_relaxed);
  if (p == nullptr) {
    const Backend b = initial_backend();
    p = ops_for(b);
    g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
    g_ops.store(p, std::memory_order_release);
  }
  return p;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kTable:
      return "table";
    case Backend::kSsse3:
      return "ssse3";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool backend_compiled(Backend b) { return ops_for(b) != nullptr; }

bool backend_supported(Backend b) {
  return backend_compiled(b) && cpu_supports(b);
}

std::vector<Backend> compiled_backends() {
  std::vector<Backend> out;
  for (int i = 0; i < kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (backend_compiled(b)) out.push_back(b);
  }
  return out;
}

Backend active_backend() {
  ensure_init();
  return static_cast<Backend>(g_backend.load(std::memory_order_relaxed));
}

bool set_backend(Backend b) {
  if (!backend_supported(b)) return false;
  std::lock_guard<std::mutex> lock(g_backend_mutex);
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
  g_ops.store(ops_for(b), std::memory_order_release);
  return true;
}

void reset_backend() {
  std::lock_guard<std::mutex> lock(g_backend_mutex);
  const Backend b = initial_backend();
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
  g_ops.store(ops_for(b), std::memory_order_release);
}

const KernelOps& kernels() { return *ensure_init(); }

void mul_add_region_multi(std::uint8_t* dst, const std::uint8_t* const* srcs,
                          const std::uint8_t* coeffs, std::size_t count,
                          std::size_t len) {
  kernels().mul_add_region_multi(dst, srcs, coeffs, count, len);
}

void xor_region_multi(std::uint8_t* dst, const std::uint8_t* const* srcs,
                      std::size_t count, std::size_t len) {
  kernels().xor_region_multi(dst, srcs, count, len);
}

}  // namespace dfs::ec::gf256
