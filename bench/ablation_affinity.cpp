// Extension bench: stripe-affinity degraded placement. The paper's §III
// example hand-assigns each degraded task to a node that stores another
// block of the same stripe, so one of the k source reads is a local disk
// read instead of a network fetch. This harness measures how much that buys
// on top of EDF, with rack-aware source selection enabled so the placement
// actually pays off.
//
// Usage: ablation_affinity [--seeds N]   (default 15)

#include <iostream>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"

using namespace dfs;

int main(int argc, char** argv) {
  int seeds = 15;
  util::FlagTable flags("ablation_affinity",
                        "stripe-affinity degraded placement ablation");
  flags.integer("seeds", &seeds, "[1,inf)", "samples per configuration");
  if (const auto status = flags.parse(argc, argv)) return *status;
  const auto cfg = workload::default_sim_cluster();
  std::cout << "Stripe-affinity degraded placement, default cluster, "
               "single-node failure,\nrack-aware source selection, "
            << seeds << " samples\n";

  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  core::DegradedFirstOptions aff_opts;
  aff_opts.stripe_affinity = true;
  core::DegradedFirstScheduler affinity(aff_opts);

  for (const auto& [n, k] : {std::pair{20, 15}, {8, 6}}) {
  util::print_section(std::cout, "code (" + std::to_string(n) + "," +
                                     std::to_string(k) + ")");
  util::Table t({"scheduler", "norm runtime (mean)", "degraded read (mean s)",
                 "self-served sources", "cross-rack sources"});
  for (core::Scheduler* sched : {static_cast<core::Scheduler*>(&lf),
                                 static_cast<core::Scheduler*>(&edf),
                                 static_cast<core::Scheduler*>(&affinity)}) {
    std::vector<double> norm, drt, self_frac, cross_frac;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng(static_cast<std::uint64_t>(s) * 1117 + 83);
      workload::SimJobOptions opts;
      opts.n = n;
      opts.k = k;
      const auto job = workload::make_sim_job(0, opts, cfg.topology, rng);
      const auto failure = storage::single_node_failure(cfg.topology, rng);
      const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
      const auto failed =
          mapreduce::simulate(cfg, {job}, failure, *sched, seed,
                              storage::SourceSelection::kPreferSameRack);
      const auto normal =
          mapreduce::simulate(cfg, {job}, storage::no_failure(), *sched, seed,
                              storage::SourceSelection::kPreferSameRack);
      norm.push_back(failed.single_job_runtime() /
                     normal.single_job_runtime());
      drt.push_back(failed.mean_degraded_read_time());
      double self = 0, cross = 0, total = 0;
      for (const auto& task : failed.map_tasks) {
        if (task.kind != mapreduce::MapTaskKind::kDegraded) continue;
        for (const auto& src : task.sources) {
          ++total;
          if (src.node == task.exec_node) ++self;
          if (!cfg.topology.same_rack(src.node, task.exec_node)) ++cross;
        }
      }
      self_frac.push_back(total > 0 ? self / total * 100.0 : 0.0);
      cross_frac.push_back(total > 0 ? cross / total * 100.0 : 0.0);
    }
    t.add_row({sched->name(),
               util::Table::num(util::summarize(norm).mean, 3),
               util::Table::num(util::summarize(drt).mean, 1),
               util::Table::pct(util::summarize(self_frac).mean, 1),
               util::Table::pct(util::summarize(cross_frac).mean, 1)});
  }
  std::cout << t;
  }
  std::cout << "\nFinding: affinity does raise the self-served source "
               "fraction (up to ~1/k), but restricting\nwhich slaves may "
               "take a degraded task delays launches and clusters them, "
               "costing more than\nthe saved fetch — at cluster scale the "
               "paper's unconstrained pacing is the better design.\nThe "
               "hand-placement of the SIII example only pays off at toy "
               "scale (k=2, one slot free).\n";
  return 0;
}
