#pragma once

// Shared helpers for the figure-reproduction harnesses.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/simulation.h"
#include "dfs/runner/jobs_flag.h"
#include "dfs/runner/sweep.h"
#include "dfs/storage/failure.h"
#include "dfs/util/stats.h"
#include "dfs/util/table.h"
#include "dfs/workload/scenarios.h"

namespace dfs::bench {

/// Resolves a positive-integer bench flag: "--<name> N" on the command line,
/// else the environment variable `env`, else `def`. Exits with a usage error
/// on 0 / negative / non-numeric input (runner::parse_jobs's strict rule),
/// matching the tools.
inline int positive_flag(int argc, char** argv, const char* name,
                         const char* env, int def) {
  const std::string flag = std::string("--") + name;
  std::string source = flag;
  const char* text = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) text = argv[i + 1];
  }
  if (text == nullptr && (text = std::getenv(env)) != nullptr) source = env;
  if (text == nullptr) return def;
  const auto value = runner::parse_jobs(text);
  if (!value) {
    std::cerr << "bench: " << source << " must be a positive integer\n";
    std::exit(2);
  }
  return *value;
}

/// Parses "--seeds N" (defaulting to `def`, the paper uses 30 samples per
/// boxplot) so CI and quick local runs can shrink the sweep.
inline int seeds_from_args(int argc, char** argv, int def = 30) {
  return positive_flag(argc, argv, "seeds", "DFS_BENCH_SEEDS", def);
}

/// Parses "--jobs N" for the sweep harnesses (default: every hardware
/// thread; DFS_BENCH_JOBS honored like DFS_BENCH_SEEDS).
inline int jobs_from_args(int argc, char** argv) {
  return positive_flag(argc, argv, "jobs", "DFS_BENCH_JOBS",
                       runner::default_jobs());
}

/// Process-wide sweep pool, sized by the first call (pass the value from
/// jobs_from_args). Later calls reuse the same pool whatever they pass.
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
