// Steady-state comparison of LF vs DF vs EDF under sustained load: each
// scheduler drives the same 2-hour online cluster scenario (open-loop
// Poisson job stream, mid-run node failures and repairs) over several seeds,
// and the table reports the latency percentiles and degraded-task share the
// snapshot experiments (fig7_simulation) cannot measure.
//
//   cluster_steady_state [--seeds N] [--jobs N]   (default 5 seeds)

#include <iostream>

#include "common.h"

#include "dfs/cluster/simulation.h"

using namespace dfs;

int main(int argc, char** argv) {
  int seeds = 5, jobs = runner::default_jobs();
  util::FlagTable flags("cluster_steady_state",
                        "LF vs DF vs EDF on the online cluster");
  flags.integer("seeds", &seeds, "[1,inf)", "runs per scheduler");
  flags.integer("jobs", &jobs, "[1,inf)", "seed-sweep threads (default: all)");
  if (const auto status = flags.parse(argc, argv)) return *status;

  util::Table table({"scheduler", "p50(s)", "p95(s)", "p99(s)", "mean(s)",
                     "degraded", "failures", "net util"});
  for (const char* name : {"LF", "BDF", "EDF"}) {
    const auto results = bench::sweep_seeds(jobs, seeds, [&](int s) {
      // Every cell owns its scheduler: make_scheduler variants carry
      // mutable per-run state (e.g. DelayScheduler::skip_since_).
      const auto scheduler = core::make_scheduler(name);
      cluster::ClusterOptions opts;  // the default steady-state scenario
      cluster::ClusterSimulation simulation(
          opts, *scheduler, static_cast<std::uint64_t>(s) + 1);
      return simulation.run();
    });
    std::vector<double> p50, p95, p99, mean, degraded, net_util;
    int failures = 0;
    for (const auto& result : results) {
      p50.push_back(result.summary.latency_p50);
      p95.push_back(result.summary.latency_p95);
      p99.push_back(result.summary.latency_p99);
      mean.push_back(result.summary.latency_mean);
      degraded.push_back(result.summary.degraded_task_fraction);
      net_util.push_back(result.summary.mean_rack_down_utilization);
      failures += result.summary.failures_injected;
    }
    table.add_row(
        {name, util::Table::num(util::summarize(p50).mean, 1),
         util::Table::num(util::summarize(p95).mean, 1),
         util::Table::num(util::summarize(p99).mean, 1),
         util::Table::num(util::summarize(mean).mean, 1),
         util::Table::pct(util::summarize(degraded).mean * 100.0, 2),
         std::to_string(failures),
         util::Table::pct(util::summarize(net_util).mean * 100.0, 1)});
  }
  std::cout << "cluster_steady_state: 2 h horizon, Poisson arrivals, "
            << seeds << " seeds (mean over seeds per cell)\n"
            << table;
  return 0;
}
