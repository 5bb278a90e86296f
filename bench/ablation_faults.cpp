// Fault-tolerance ablation: LF vs DF vs EDF on the online cluster with the
// compute-failure layer switched on — every injected failure also kills the
// node's TaskTracker, attempts crash transiently at a small rate, and lost
// map outputs are recomputed. The table shows what the schedulers pay for
// robustness: attempt-outcome counts, heartbeat-expiry detection latency,
// and the latency percentiles under re-execution load.
//
//   ablation_faults [--seeds N]   (default 3)

#include <iostream>

#include "common.h"

#include "dfs/cluster/simulation.h"
#include "dfs/mapreduce/metrics.h"

using namespace dfs;

int main(int argc, char** argv) {
  int seeds = 3;
  util::FlagTable flags("ablation_faults",
                        "schedulers under the compute-failure layer");
  flags.integer("seeds", &seeds, "[1,inf)", "runs per scheduler");
  if (const auto status = flags.parse(argc, argv)) return *status;

  cluster::ClusterOptions base;
  base.horizon = 1800.0;  // half an hour keeps the sweep quick
  base.warmup = 300.0;
  base.lifecycle.node_mttf_hours = 1.0;  // several failures per run
  base.config.fault.compute_failures = true;
  base.config.fault.attempt_failure_prob = 0.01;
  base.config.fault.max_attempts = 6;

  util::Table table({"scheduler", "p50(s)", "p95(s)", "killed", "failed",
                     "lost outputs", "jobs aborted", "detect mean(s)",
                     "detect p95(s)"});
  for (const char* name : {"LF", "BDF", "EDF"}) {
    const auto scheduler = core::make_scheduler(name);
    std::vector<double> p50, p95, detect;
    int killed = 0, failed = 0, lost = 0, aborted = 0;
    for (int s = 0; s < seeds; ++s) {
      cluster::ClusterSimulation simulation(
          base, *scheduler, static_cast<std::uint64_t>(s) + 1);
      const auto result = simulation.run();
      p50.push_back(result.summary.latency_p50);
      p95.push_back(result.summary.latency_p95);
      const auto& run = result.run;
      killed += run.count_map_attempts(mapreduce::AttemptOutcome::kKilled) +
                run.count_reduce_attempts(mapreduce::AttemptOutcome::kKilled);
      failed += run.count_map_attempts(mapreduce::AttemptOutcome::kFailed) +
                run.count_reduce_attempts(mapreduce::AttemptOutcome::kFailed);
      for (const auto& t : run.map_tasks) {
        if (t.output_lost) ++lost;
      }
      aborted += run.jobs_failed();
      for (const auto& d : run.detections) detect.push_back(d.latency());
    }
    table.add_row(
        {name, util::Table::num(util::summarize(p50).mean, 1),
         util::Table::num(util::summarize(p95).mean, 1),
         std::to_string(killed), std::to_string(failed),
         std::to_string(lost), std::to_string(aborted),
         util::Table::num(
             detect.empty() ? 0.0 : util::summarize(detect).mean, 1),
         util::Table::num(
             detect.empty() ? 0.0 : util::percentile(detect, 95.0), 1)});
  }
  std::cout << "ablation_faults: 0.5 h horizon, TaskTracker deaths + "
               "transient attempt crashes, "
            << seeds << " seeds (totals across seeds)\n"
            << table;
  return 0;
}
