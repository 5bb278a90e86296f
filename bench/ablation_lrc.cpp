// Ablation: footnote 1 of the paper notes that degraded-first scheduling
// "also applies to" erasure code constructions that read fewer blocks on a
// single failure. This harness compares RS(16,12) against an Azure-style
// LRC(12,2,2) with the same native-block count: the LRC's degraded reads
// fetch only a 6-shard locality group instead of 12 shards, shrinking LF's
// failure-mode penalty — and shows how much headroom is left for EDF.
//
// Usage: ablation_lrc [--seeds N]   (default 15)

#include <iostream>
#include <memory>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"
#include "dfs/ec/lrc.h"
#include "dfs/ec/reed_solomon.h"

using namespace dfs;

int main(int argc, char** argv) {
  int seeds = 15;
  util::FlagTable flags("ablation_lrc",
                        "RS vs LRC under degraded-first scheduling");
  flags.integer("seeds", &seeds, "[1,inf)", "samples per configuration");
  if (const auto status = flags.parse(argc, argv)) return *status;
  const auto cfg = workload::default_sim_cluster();
  std::cout << "Ablation: RS vs LRC degraded reads under LF and EDF, default "
               "cluster, single-node failure, "
            << seeds << " samples\n"
            << "RS(16,12): degraded read fetches 12 shards. LRC(12,2,2) "
               "(n=16): fetches its 6-shard locality group.\n";

  util::Table t({"code", "scheduler", "norm runtime (mean)",
                 "degraded read (mean s)", "blocks fetched"});
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  for (const bool use_lrc : {false, true}) {
    for (core::Scheduler* sched : {static_cast<core::Scheduler*>(&lf),
                                   static_cast<core::Scheduler*>(&edf)}) {
      std::vector<double> norm, drt, fetched;
      for (int s = 0; s < seeds; ++s) {
        util::Rng rng(static_cast<std::uint64_t>(s) * 547 + 41);
        std::shared_ptr<const ec::ErasureCode> code;
        if (use_lrc) {
          code = ec::make_lrc(12, 2, 2);
        } else {
          code = ec::make_reed_solomon(16, 12);
        }
        const auto job = bench::make_coded_job(code, cfg.topology, rng);
        const auto failure = storage::single_node_failure(cfg.topology, rng);
        const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
        const auto failed =
            mapreduce::simulate(cfg, {job}, failure, *sched, seed);
        const auto normal = mapreduce::simulate(
            cfg, {job}, storage::no_failure(), *sched, seed);
        norm.push_back(failed.single_job_runtime() /
                       normal.single_job_runtime());
        drt.push_back(failed.mean_degraded_read_time());
        double total_src = 0;
        int degraded = 0;
        for (const auto& task : failed.map_tasks) {
          if (task.kind == mapreduce::MapTaskKind::kDegraded) {
            total_src += static_cast<double>(task.sources.size());
            ++degraded;
          }
        }
        fetched.push_back(degraded > 0 ? total_src / degraded : 0.0);
      }
      t.add_row({use_lrc ? "LRC(12,2,2)" : "RS(16,12)", sched->name(),
                 util::Table::num(util::summarize(norm).mean, 3),
                 util::Table::num(util::summarize(drt).mean, 1),
                 util::Table::num(util::summarize(fetched).mean, 1)});
    }
  }
  std::cout << t
            << "Expected: LRC shrinks LF's failure penalty (fewer blocks per "
               "degraded read), yet EDF\nstill reduces the runtime — "
               "degraded-first scheduling composes with such codes.\n";
  return 0;
}
