// Ablation: degraded-read source selection. The paper's analysis assumes a
// degraded task downloads k random survivors of the stripe (expected
// cross-rack volume (R-1)/R * k * S). A rack-aware reader that prefers
// same-rack survivors moves fewer bytes across the core switch — this
// harness quantifies how much of LF's failure-mode penalty that recovers,
// and whether degraded-first scheduling still helps on top of it.
//
// Usage: ablation_sources [--seeds N]   (default 15)

#include <iostream>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"

using namespace dfs;

int main(int argc, char** argv) {
  int seeds = 15;
  util::FlagTable flags("ablation_sources",
                        "degraded-read source selection ablation");
  flags.integer("seeds", &seeds, "[1,inf)", "samples per configuration");
  if (const auto status = flags.parse(argc, argv)) return *status;
  std::cout << "Ablation: degraded-read source selection (random-k vs "
               "prefer-same-rack), default cluster,\nsingle-node failure, "
            << seeds << " samples\n";

  util::Table t({"source policy", "scheduler", "norm runtime (mean)",
                 "degraded read (mean s)"});
  for (const auto& [sel, name] :
       {std::pair{storage::SourceSelection::kRandom, "random-k"},
        {storage::SourceSelection::kPreferSameRack, "prefer-same-rack"}}) {
    const auto cfg = workload::default_sim_cluster();
    core::LocalityFirstScheduler lf;
    auto edf = core::DegradedFirstScheduler::enhanced();
    for (core::Scheduler* sched : {static_cast<core::Scheduler*>(&lf),
                                   static_cast<core::Scheduler*>(&edf)}) {
      std::vector<double> norm, drt;
      for (int s = 0; s < seeds; ++s) {
        util::Rng rng(static_cast<std::uint64_t>(s) * 433 + 31);
        const auto job = workload::make_sim_job(0, workload::SimJobOptions{},
                                                cfg.topology, rng);
        const auto failure = storage::single_node_failure(cfg.topology, rng);
        const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
        const auto failed =
            mapreduce::simulate(cfg, {job}, failure, *sched, seed, sel);
        const auto normal = mapreduce::simulate(
            cfg, {job}, storage::no_failure(), *sched, seed, sel);
        norm.push_back(failed.single_job_runtime() /
                       normal.single_job_runtime());
        drt.push_back(failed.mean_degraded_read_time());
      }
      t.add_row({name, sched->name(),
                 util::Table::num(util::summarize(norm).mean, 3),
                 util::Table::num(util::summarize(drt).mean, 1)});
    }
  }
  std::cout << t
            << "Expected: same-rack sources shorten degraded reads for both "
               "schedulers, but the\ncross-rack parity fraction keeps "
               "degraded-first scheduling valuable.\n";
  return 0;
}
