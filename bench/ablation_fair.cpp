// Extension bench: fair job scheduling (§VII cites FLEX and delay/fair
// scheduling) composed with degraded-first map scheduling. A small job
// submitted behind a big one starves under FIFO; the fair scheduler serves
// it promptly — and the degraded-first pacing carries over unchanged, so
// fairness and failure-mode performance compose.
//
// Usage: ablation_fair [--seeds N]   (default 10)

#include <iostream>
#include <memory>

#include "common.h"
#include "dfs/core/scheduler.h"

using namespace dfs;

int main(int argc, char** argv) {
  int seeds = 10;
  util::FlagTable flags("ablation_fair",
                        "fair job scheduling with degraded-first maps");
  flags.integer("seeds", &seeds, "[1,inf)", "samples per configuration");
  if (const auto status = flags.parse(argc, argv)) return *status;
  const auto cfg = workload::default_sim_cluster();
  std::cout << "FIFO vs fair job scheduling, big job (1440 blocks) + small "
               "job (90 blocks) submitted 10 s later,\nsingle-node failure, "
            << seeds << " samples\n";

  util::Table t({"scheduler", "big-job runtime (s)", "small-job latency (s)",
                 "small-job runtime (s)"});
  for (const char* name : {"LF", "EDF", "FAIR", "FAIR+DF"}) {
    const auto sched = core::make_scheduler(name);
    std::vector<double> big_rt, small_lat, small_rt;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng(static_cast<std::uint64_t>(s) * 1303 + 91);
      workload::SimJobOptions big_opts;
      auto big = workload::make_sim_job(0, big_opts, cfg.topology, rng);
      workload::SimJobOptions small_opts;
      small_opts.num_blocks = 90;  // divisible by k = 15
      small_opts.num_reducers = 4;
      small_opts.submit_time = 10.0;
      auto small = workload::make_sim_job(1, small_opts, cfg.topology, rng);
      const auto failure = storage::single_node_failure(cfg.topology, rng);
      const auto r = mapreduce::simulate(
          cfg, {big, small}, failure, *sched,
          static_cast<std::uint64_t>(s) + 1);
      big_rt.push_back(r.jobs[0].runtime());
      small_lat.push_back(r.jobs[1].latency());
      small_rt.push_back(r.jobs[1].runtime());
    }
    t.add_row({name, util::Table::num(util::summarize(big_rt).mean, 1),
               util::Table::num(util::summarize(small_lat).mean, 1),
               util::Table::num(util::summarize(small_rt).mean, 1)});
  }
  std::cout << t
            << "Expected: FAIR variants cut the small job's latency versus "
               "FIFO; the +DF variant keeps\nthe degraded-first failure-mode "
               "advantage on top of the fairness.\n";
  return 0;
}
