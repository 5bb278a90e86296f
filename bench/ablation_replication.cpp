// Extension bench: the storage-overhead vs failure-penalty trade-off the
// paper's introduction frames. Compares 3-way replication (HDFS default,
// 200% overhead, no degraded reads) against Reed-Solomon erasure coding
// (33% overhead at (20,15)) in normal and single-node-failure mode, under
// locality-first and degraded-first scheduling.
//
// Degraded-first scheduling is what makes the erasure-coded failure mode
// competitive: it removes most of the gap to replication without paying
// replication's storage.
//
// Usage: ablation_replication [--seeds N]   (default 10)

#include <iostream>
#include <memory>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"
#include "dfs/ec/reed_solomon.h"

using namespace dfs;

namespace {

struct Scheme {
  const char* label;
  double overhead;  // redundancy bytes / data bytes
  mapreduce::JobInput (*make)(const net::Topology&, util::Rng&);
};

mapreduce::JobInput make_rep3(const net::Topology& topo, util::Rng& rng) {
  mapreduce::JobInput job;
  job.layout = std::make_shared<storage::StorageLayout>(
      storage::replicated_layout(1440, 3, topo, rng));
  job.code = ec::make_replication(3);
  return job;
}

mapreduce::JobInput make_rs(const net::Topology& topo, util::Rng& rng) {
  return bench::make_coded_job(ec::make_reed_solomon(20, 15), topo, rng);
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 10;
  util::FlagTable flags("ablation_replication",
                        "replication vs erasure coding");
  flags.integer("seeds", &seeds, "[1,inf)", "samples per configuration");
  if (const auto status = flags.parse(argc, argv)) return *status;
  const auto cfg = workload::default_sim_cluster();
  std::cout << "Replication vs erasure coding, 1440-block job, single-node "
               "failure, "
            << seeds << " samples\n";

  const Scheme schemes[] = {
      {"REP(3)", 2.00, &make_rep3},
      {"RS(20,15)", 5.0 / 15.0, &make_rs},
  };
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();

  util::Table t({"storage", "overhead", "scheduler", "normal (s)",
                 "failure (s)", "normalized", "degraded tasks"});
  for (const Scheme& scheme : schemes) {
    for (core::Scheduler* sched : {static_cast<core::Scheduler*>(&lf),
                                   static_cast<core::Scheduler*>(&edf)}) {
      std::vector<double> normal, failed, norm, degraded;
      for (int s = 0; s < seeds; ++s) {
        util::Rng rng(static_cast<std::uint64_t>(s) * 389 + 57);
        auto job = scheme.make(cfg.topology, rng);
        job.spec = mapreduce::JobSpec{};  // §V-B default job profile
        const auto failure = storage::single_node_failure(cfg.topology, rng);
        const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
        const auto rn = mapreduce::simulate(cfg, {job},
                                            storage::no_failure(), *sched,
                                            seed);
        const auto rf = mapreduce::simulate(cfg, {job}, failure, *sched,
                                            seed);
        normal.push_back(rn.single_job_runtime());
        failed.push_back(rf.single_job_runtime());
        norm.push_back(rf.single_job_runtime() / rn.single_job_runtime());
        degraded.push_back(static_cast<double>(rf.jobs[0].degraded_tasks));
      }
      t.add_row({scheme.label, util::Table::pct(scheme.overhead * 100.0, 0),
                 sched->name(),
                 util::Table::num(util::summarize(normal).mean, 1),
                 util::Table::num(util::summarize(failed).mean, 1),
                 util::Table::num(util::summarize(norm).mean, 3),
                 util::Table::num(util::summarize(degraded).mean, 1)});
    }
  }
  std::cout << t
            << "Replication sees no degraded tasks at 200% overhead; "
               "RS at 33% overhead pays a failure\npenalty under LF that "
               "degraded-first scheduling largely removes — the paper's "
               "pitch in one table.\n";
  return 0;
}
