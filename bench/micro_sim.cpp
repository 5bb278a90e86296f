// Microbenchmarks for the simulation substrate: event-queue throughput (a
// schedule-and-drain stream and cluster_scale's heartbeat event mix),
// flow-level network transfer processing under both contention models, and
// the cost of a full default-cluster MapReduce simulation run.

#include <benchmark/benchmark.h>

#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"
#include "dfs/mapreduce/simulation.h"
#include "dfs/net/network.h"
#include "dfs/sim/simulator.h"
#include "dfs/util/rng.h"
#include "dfs/workload/scenarios.h"

namespace {

using namespace dfs;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < events; ++i) {
      sim.schedule_in((i * 31) % 1000, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          events);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_EventMixClusterScale(benchmark::State& state) {
  // cluster_scale's kernel load without the cluster: 2,000 slaves'
  // heartbeat timers on one 3 s period; about one tick in nine does work,
  // which here is a zero-delay burst of three events (a network recompute
  // and its deliveries) and one event at a random later time (a task
  // completion). Items are dispatched events.
  constexpr int kTimers = 2000;
  const double horizon = static_cast<double>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    util::Rng rng(3);
    for (int i = 0; i < kTimers; ++i) {
      sim.schedule_periodic(rng.uniform(0.0, 3.0), 3.0, [&] {
        if (rng.uniform_int(0, 8) == 0) {
          for (int b = 0; b < 3; ++b) sim.schedule_now([] {});
          sim.schedule_in(rng.uniform(5.0, 60.0), [] {});
        }
        return sim.now() < horizon;
      });
    }
    sim.run();
    events += sim.events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventMixClusterScale)->Arg(300)->Unit(benchmark::kMillisecond);

void network_bench(benchmark::State& state, net::ContentionModel model) {
  const int flows = static_cast<int>(state.range(0));
  const net::Topology topo(4, 10);
  net::LinkConfig links;
  links.rack_up = util::gigabits_per_sec(1);
  links.rack_down = util::gigabits_per_sec(1);
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network net(sim, topo, links, model);
    int done = 0;
    for (int i = 0; i < flows; ++i) {
      const net::NodeId src = i % 40;
      const net::NodeId dst = (i * 13 + 7) % 40;
      sim.schedule_in(i % 50, [&net, &done, src, dst] {
        net.transfer(src, dst, 1e6, [&done] { ++done; });
      });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          flows);
}

void BM_NetworkFairShare(benchmark::State& state) {
  network_bench(state, net::ContentionModel::kMaxMinFairShare);
}
BENCHMARK(BM_NetworkFairShare)->Arg(1000)->Arg(10000);

void BM_NetworkExclusiveFifo(benchmark::State& state) {
  network_bench(state, net::ContentionModel::kExclusiveFifo);
}
BENCHMARK(BM_NetworkExclusiveFifo)->Arg(1000)->Arg(10000);

void full_sim_bench(benchmark::State& state, const std::string& scheduler) {
  const auto cfg = workload::default_sim_cluster();
  util::Rng rng(7);
  const auto job =
      workload::make_sim_job(0, workload::SimJobOptions{}, cfg.topology, rng);
  const auto failure = storage::single_node_failure(cfg.topology, rng);
  const auto sched = core::make_scheduler(scheduler);
  for (auto _ : state) {
    const auto r = mapreduce::simulate(cfg, {job}, failure, *sched, 11);
    benchmark::DoNotOptimize(r.makespan);
  }
}

void BM_FullSimulationLF(benchmark::State& state) {
  full_sim_bench(state, "LF");
}
BENCHMARK(BM_FullSimulationLF)->Unit(benchmark::kMillisecond);

void BM_FullSimulationEDF(benchmark::State& state) {
  full_sim_bench(state, "EDF");
}
BENCHMARK(BM_FullSimulationEDF)->Unit(benchmark::kMillisecond);

void BM_SchedulerDecisionEDF(benchmark::State& state) {
  // Cost of one heartbeat's scheduling decision, measured by running the
  // whole map-assignment phase of a small job and dividing by heartbeats.
  const auto cfg = workload::default_sim_cluster();
  util::Rng rng(9);
  workload::SimJobOptions opts;
  opts.num_blocks = 240;
  opts.num_reducers = 0;
  opts.shuffle_ratio = 0.0;
  const auto job = workload::make_sim_job(0, opts, cfg.topology, rng);
  const auto failure = storage::single_node_failure(cfg.topology, rng);
  auto edf = core::DegradedFirstScheduler::enhanced();
  for (auto _ : state) {
    const auto r = mapreduce::simulate(cfg, {job}, failure, edf, 13);
    benchmark::DoNotOptimize(r.makespan);
  }
  state.SetItemsProcessed(state.iterations() * 240);
}
BENCHMARK(BM_SchedulerDecisionEDF)->Unit(benchmark::kMillisecond);

}  // namespace
