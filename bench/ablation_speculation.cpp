// Extension bench: Hadoop speculative execution meets degraded tasks.
// Under locality-first, the end-of-phase degraded tasks run far longer than
// the completed maps, so the speculator mistakes them for stragglers and
// launches backup copies — duplicating their k-block degraded reads on
// already-congested links. Degraded-first's paced degraded tasks blend into
// the phase and attract far less (wasted) speculation.
//
// Usage: ablation_speculation [--seeds N]   (default 10)

#include <iostream>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"

using namespace dfs;

int main(int argc, char** argv) {
  int seeds = 10;
  util::FlagTable flags("ablation_speculation",
                        "speculative execution meets degraded tasks");
  flags.integer("seeds", &seeds, "[1,inf)", "samples per configuration");
  if (const auto status = flags.parse(argc, argv)) return *status;
  std::cout << "Speculative execution x scheduling, single-node failure, "
            << seeds << " samples\n";

  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  util::Table t({"speculation", "scheduler", "runtime (s)",
                 "backup attempts", "of which degraded", "wasted"});
  for (const bool speculate : {false, true}) {
    auto cfg = workload::default_sim_cluster();
    cfg.speculative_execution = speculate;
    for (core::Scheduler* sched : {static_cast<core::Scheduler*>(&lf),
                                   static_cast<core::Scheduler*>(&edf)}) {
      std::vector<double> runtime, attempts, degraded_backups, wasted;
      for (int s = 0; s < seeds; ++s) {
        util::Rng rng(static_cast<std::uint64_t>(s) * 947 + 71);
        const auto job = workload::make_sim_job(0, workload::SimJobOptions{},
                                                cfg.topology, rng);
        const auto failure = storage::single_node_failure(cfg.topology, rng);
        const auto result = mapreduce::simulate(
            cfg, {job}, failure, *sched, static_cast<std::uint64_t>(s) + 1);
        runtime.push_back(result.single_job_runtime());
        attempts.push_back(result.speculative_attempts());
        wasted.push_back(result.speculative_losses());
        int db = 0;
        for (const auto& task : result.map_tasks) {
          if (task.speculative &&
              task.kind == mapreduce::MapTaskKind::kDegraded) {
            ++db;
          }
        }
        degraded_backups.push_back(db);
      }
      t.add_row({speculate ? "on" : "off", sched->name(),
                 util::Table::num(util::summarize(runtime).mean, 1),
                 util::Table::num(util::summarize(attempts).mean, 1),
                 util::Table::num(util::summarize(degraded_backups).mean, 1),
                 util::Table::num(util::summarize(wasted).mean, 1)});
    }
  }
  std::cout << t
            << "Expected: under LF the speculator chases degraded tasks "
               "(duplicated degraded reads);\nEDF leaves it little to chase "
               "and keeps its advantage either way.\n";
  return 0;
}
