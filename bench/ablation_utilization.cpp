// Extension bench: rack-downlink utilization over the map phase — the
// quantity behind the paper's core §III observation: while local tasks run,
// locality-first leaves the network idle, then saturates it with all the
// degraded reads at once; degraded-first rides that idle bandwidth instead.
// Prints an ASCII utilization timeline per scheduler.
//
// Usage: ablation_utilization   (no flags; one trace)

#include <iostream>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"
#include "dfs/net/utilization.h"

using namespace dfs;

namespace {

void run_trace(core::Scheduler& sched) {
  const auto cfg = workload::default_sim_cluster();
  util::Rng rng(99);
  const auto job = workload::make_sim_job(0, workload::SimJobOptions{},
                                          cfg.topology, rng);
  const auto failure = storage::single_node_failure(cfg.topology, rng);

  mapreduce::MapReduceSimulation sim(cfg, {job}, failure, sched, 7);
  bool job_done = false;
  mapreduce::TaskHooks hooks;
  hooks.on_job_finish = [&](const mapreduce::JobMetrics&) { job_done = true; };
  sim.set_hooks(std::move(hooks));
  net::UtilizationSampler sampler(sim.simulator(), sim.network(),
                                  /*interval=*/10.0,
                                  [&job_done] { return !job_done; });
  sampler.start();
  const auto result = sim.run();

  std::cout << "\n--- " << sched.name() << " (runtime "
            << util::Table::num(result.single_job_runtime(), 1)
            << " s; each row = 10 s, bar = mean rack-downlink busy "
               "fraction) ---\n";
  for (const auto& s : sampler.samples()) {
    const int bars = static_cast<int>(s.utilization * 50.0 + 0.5);
    std::cout << util::Table::num(s.time, 0) << "s\t"
              << std::string(static_cast<std::size_t>(bars), '#')
              << (bars == 0 ? "." : "") << "  "
              << util::Table::pct(s.utilization * 100.0, 0) << '\n';
  }
  const double map_end = result.jobs.front().map_phase_end;
  std::cout << "first half of map phase: "
            << util::Table::pct(sampler.mean_utilization(0, map_end / 2) * 100,
                                1)
            << " busy; second half: "
            << util::Table::pct(
                   sampler.mean_utilization(map_end / 2, map_end) * 100, 1)
            << " busy (map phase ends at " << util::Table::num(map_end, 0)
            << " s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagTable flags("ablation_utilization",
                        "rack-downlink utilization timeline per scheduler");
  if (const auto status = flags.parse(argc, argv)) return *status;
  std::cout << "Rack-downlink utilization during a failure-mode run "
               "(default cluster, single-node failure)\n";
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  run_trace(lf);
  run_trace(edf);
  std::cout << "\nExpected: LF idles the links early and slams them after "
               "the local tasks drain; EDF\nspreads the same bytes across "
               "the whole phase — the idle bandwidth the paper exploits.\n";
  return 0;
}
