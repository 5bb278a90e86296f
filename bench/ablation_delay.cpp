// Extension bench: delay scheduling (Zaharia et al., EuroSys 2010) as an
// additional baseline (§VII related work). Delay scheduling raises map-task
// locality by making jobs briefly wait for local slots — but like
// locality-first it leaves degraded tasks until the end, so it does not fix
// the failure-mode pathology. This harness reports locality and runtime in
// normal and failure mode for LF, DELAY, and EDF.
//
// Usage: ablation_delay [--seeds N]   (default 10)

#include <iostream>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/delay_scheduler.h"
#include "dfs/core/locality_first.h"

using namespace dfs;

int main(int argc, char** argv) {
  int seeds = 10;
  util::FlagTable flags("ablation_delay", "delay scheduling baseline");
  flags.integer("seeds", &seeds, "[1,inf)", "samples per configuration");
  if (const auto status = flags.parse(argc, argv)) return *status;
  const auto cfg = workload::default_sim_cluster();
  std::cout << "Delay scheduling vs locality-first vs degraded-first, "
            << seeds << " samples\n"
            << "(locality = node-local map tasks / all map tasks)\n";

  core::LocalityFirstScheduler lf;
  core::DelayScheduler delay(5.0);
  auto edf = core::DegradedFirstScheduler::enhanced();

  util::Table t({"scheduler", "normal locality", "normal runtime (s)",
                 "failure runtime (s)", "normalized"});
  for (core::Scheduler* sched : {static_cast<core::Scheduler*>(&lf),
                                 static_cast<core::Scheduler*>(&delay),
                                 static_cast<core::Scheduler*>(&edf)}) {
    std::vector<double> locality, normal, failed;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng(static_cast<std::uint64_t>(s) * 271 + 3);
      const auto job = workload::make_sim_job(0, workload::SimJobOptions{},
                                              cfg.topology, rng);
      const auto failure = storage::single_node_failure(cfg.topology, rng);
      const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
      const auto rn =
          mapreduce::simulate(cfg, {job}, storage::no_failure(), *sched, seed);
      const auto rf = mapreduce::simulate(cfg, {job}, failure, *sched, seed);
      locality.push_back(
          static_cast<double>(
              rn.count_map_tasks(mapreduce::MapTaskKind::kNodeLocal)) /
          static_cast<double>(rn.map_tasks.size()));
      normal.push_back(rn.single_job_runtime());
      failed.push_back(rf.single_job_runtime());
    }
    const double ln = util::summarize(normal).mean;
    const double lfapt = util::summarize(failed).mean;
    t.add_row({sched->name(),
               util::Table::pct(util::summarize(locality).mean * 100.0, 1),
               util::Table::num(ln, 1), util::Table::num(lfapt, 1),
               util::Table::num(lfapt / ln, 3)});
  }
  std::cout << t
            << "Expected: DELAY achieves the best normal-mode locality but "
               "inherits LF's failure-mode\npenalty; EDF matches LF in "
               "normal mode and wins decisively under failure.\n";
  return 0;
}
