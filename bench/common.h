#pragma once

// Shared helpers for the figure-reproduction harnesses.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/simulation.h"
#include "dfs/runner/sweep.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"
#include "dfs/util/flags.h"
#include "dfs/util/stats.h"
#include "dfs/util/table.h"
#include "dfs/workload/scenarios.h"

namespace dfs::bench {

/// Process-wide sweep pool, sized by the first call (pass the harness's
/// --jobs value). Later calls reuse the same pool whatever they pass.
inline runner::ThreadPool& sweep_pool(int jobs) {
  static runner::ThreadPool pool(jobs);
  return pool;
}

/// Fan `fn(seed)` over seeds 0..n-1 across the shared pool; results come
/// back in seed order, so tables built from them are byte-identical to a
/// serial run. Each cell must build its own scheduler/Rng/simulation stack.
template <typename Fn>
auto sweep_seeds(int jobs, int n, Fn&& fn) {
  return runner::sweep(sweep_pool(jobs), static_cast<std::size_t>(n),
                       [&](std::size_t i) { return fn(static_cast<int>(i)); });
}

/// Renders a five-number summary the way the paper's boxplots report it.
inline std::vector<std::string> boxplot_cells(const util::BoxPlot& b,
                                              int precision = 2) {
  return {util::Table::num(b.median, precision),
          util::Table::num(b.q1, precision),
          util::Table::num(b.q3, precision),
          util::Table::num(b.min, precision),
          util::Table::num(b.max, precision),
          util::Table::num(b.mean, precision)};
}

inline std::vector<std::string> boxplot_header(const std::string& label) {
  return {label, "median", "q1", "q3", "lo", "hi", "mean"};
}

/// The 1440-block §V-B job (default JobSpec) over a fresh random
/// rack-constrained layout of `code` on `topo`; the layout is the only draw
/// taken from `rng`.
inline mapreduce::JobInput make_coded_job(
    std::shared_ptr<const ec::ErasureCode> code, const net::Topology& topo,
    util::Rng& rng) {
  mapreduce::JobInput job;
  job.layout = std::make_shared<storage::StorageLayout>(
      storage::random_rack_constrained_layout(1440, code->n(), code->k(), topo,
                                              rng));
  job.code = std::move(code);
  return job;
}

/// One failure-mode sample: runtime of the (single) job under `sched`,
/// normalized by the same seed's normal-mode runtime.
inline double normalized_runtime_sample(
    const mapreduce::ClusterConfig& cfg, const mapreduce::JobInput& job,
    const storage::FailureScenario& failure, core::Scheduler& sched,
    std::uint64_t seed) {
  const double failed = mapreduce::simulate(cfg, {job}, failure, sched, seed)
                            .single_job_runtime();
  const double normal =
      mapreduce::simulate(cfg, {job}, storage::no_failure(), sched, seed)
          .single_job_runtime();
  return failed / normal;
}

}  // namespace dfs::bench
