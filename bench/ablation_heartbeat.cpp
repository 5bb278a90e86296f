// Ablation: heartbeat interval sensitivity. Degraded-first pacing only acts
// at heartbeats (one degraded task per slave heartbeat), so the interval
// bounds how finely the launches spread. This harness sweeps the interval
// around Hadoop's 3 s default.
//
// Usage: ablation_heartbeat [--seeds N]   (default 10)

#include <iostream>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"

using namespace dfs;

int main(int argc, char** argv) {
  int seeds = 10;
  util::FlagTable flags("ablation_heartbeat", "heartbeat interval sensitivity");
  flags.integer("seeds", &seeds, "[1,inf)", "samples per configuration");
  if (const auto status = flags.parse(argc, argv)) return *status;
  std::cout << "Ablation: heartbeat interval, default cluster, single-node "
               "failure, "
            << seeds << " samples\n";

  util::Table t({"interval", "LF norm (mean)", "EDF norm (mean)", "EDF cut"});
  for (const double hb : {1.0, 3.0, 6.0, 12.0}) {
    auto cfg = workload::default_sim_cluster();
    cfg.heartbeat_interval = hb;
    core::LocalityFirstScheduler lf;
    auto edf = core::DegradedFirstScheduler::enhanced();
    std::vector<double> lf_norm, edf_norm;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng(static_cast<std::uint64_t>(s) * 719 + 47);
      const auto job = workload::make_sim_job(0, workload::SimJobOptions{},
                                              cfg.topology, rng);
      const auto failure = storage::single_node_failure(cfg.topology, rng);
      const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
      lf_norm.push_back(
          bench::normalized_runtime_sample(cfg, job, failure, lf, seed));
      edf_norm.push_back(
          bench::normalized_runtime_sample(cfg, job, failure, edf, seed));
    }
    const double lm = util::summarize(lf_norm).mean;
    const double em = util::summarize(edf_norm).mean;
    t.add_row({util::Table::num(hb, 0) + "s", util::Table::num(lm, 3),
               util::Table::num(em, 3),
               util::Table::pct(util::reduction_percent(lm, em), 1)});
  }
  std::cout << t
            << "Expected: EDF's advantage persists across intervals; very "
               "coarse heartbeats slow both\nschedulers by leaving slots "
               "idle between assignments.\n";
  return 0;
}
