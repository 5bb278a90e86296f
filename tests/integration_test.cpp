#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "dfs/analysis/model.h"
#include "dfs/cluster/simulation.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"
#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/simulation.h"
#include "dfs/mapreduce/trace.h"
#include "dfs/storage/failure.h"
#include "dfs/workload/scenarios.h"

namespace dfs {
namespace {

using mapreduce::RunResult;
using mapreduce::simulate;

// --- the §III motivating example, replayed through the full stack -----------------

TEST(Integration, MotivatingExampleLocalityFirstDelaysDegradedTasks) {
  // The paper's Fig. 3(a) hand-assigns one degraded task per node and gets a
  // 40 s map phase. The organic heartbeat-driven LF is *worse* than that
  // idealization: the first node to heartbeat takes two degraded tasks on
  // its two slots, serializing four block downloads on its downlink, so the
  // map phase lands in the 50-65 s range. (bench/fig3_motivating also
  // replays the paper's exact lock-step schedule, which yields 40 s.)
  const auto ex = workload::motivating_example();
  core::LocalityFirstScheduler lf;
  const RunResult r =
      simulate(ex.cluster, {ex.job}, ex.failure, lf, 1,
               storage::SourceSelection::kPreferSameRack);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_GT(r.jobs[0].map_phase_end, 40.0);
  EXPECT_LT(r.jobs[0].map_phase_end, 70.0);
  EXPECT_EQ(r.count_map_tasks(mapreduce::MapTaskKind::kDegraded), 4);
  // All degraded tasks launch only after every local task has launched.
  double last_local = 0, first_degraded = 1e18;
  for (const auto& t : r.map_tasks) {
    if (t.kind == mapreduce::MapTaskKind::kDegraded) {
      first_degraded = std::min(first_degraded, t.assign_time);
    } else {
      last_local = std::max(last_local, t.assign_time);
    }
  }
  EXPECT_GE(first_degraded, last_local);
}

TEST(Integration, MotivatingExampleSaving) {
  const auto ex = workload::motivating_example();
  core::LocalityFirstScheduler lf;
  auto bdf = core::DegradedFirstScheduler::basic();
  double lf_sum = 0, df_sum = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    lf_sum += simulate(ex.cluster, {ex.job}, ex.failure, lf, seed,
                       storage::SourceSelection::kPreferSameRack)
                  .jobs[0]
                  .map_phase_end;
    df_sum += simulate(ex.cluster, {ex.job}, ex.failure, bdf, seed,
                       storage::SourceSelection::kPreferSameRack)
                  .jobs[0]
                  .map_phase_end;
  }
  // Fig. 3 reports a 25% saving for the idealized schedules; the organic
  // schedulers must show a clear saving too.
  const double saving = (lf_sum - df_sum) / lf_sum * 100.0;
  EXPECT_GT(saving, 8.0);
  EXPECT_LT(saving, 45.0);
}

// --- reduced-scale Fig. 7-style comparison ----------------------------------------

struct ReducedSim {
  mapreduce::ClusterConfig cfg = workload::default_sim_cluster();
  workload::SimJobOptions opts;

  ReducedSim() {
    // One third of the paper's block count keeps the test under a second
    // while preserving all the contention structure.
    opts.num_blocks = 480;
    opts.num_reducers = 10;
  }

  RunResult run(core::Scheduler& s, std::uint64_t seed, bool fail) {
    util::Rng rng(seed);
    auto job = workload::make_sim_job(0, opts, cfg.topology, rng);
    const auto failure = fail ? storage::single_node_failure(cfg.topology, rng)
                              : storage::no_failure();
    return simulate(cfg, {job}, failure, s, seed + 1000);
  }
};

TEST(Integration, NormalizedRuntimeEdfBeatsLf) {
  ReducedSim sim;
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  double lf_norm = 0, edf_norm = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const double normal = sim.run(lf, seed, false).single_job_runtime();
    lf_norm += sim.run(lf, seed, true).single_job_runtime() / normal;
    edf_norm += sim.run(edf, seed, true).single_job_runtime() / normal;
  }
  EXPECT_LT(edf_norm, lf_norm);
  // Failure mode is never faster than normal mode.
  EXPECT_GE(lf_norm / 3.0, 1.0);
  EXPECT_GE(edf_norm / 3.0, 0.98);
}

TEST(Integration, DegradedReadTimesMuchShorterUnderEdf) {
  ReducedSim sim;
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  double lf_drt = 0, edf_drt = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    lf_drt += sim.run(lf, seed, true).mean_degraded_read_time();
    edf_drt += sim.run(edf, seed, true).mean_degraded_read_time();
  }
  // Fig. 8(b): the degraded read time collapses (~80%+ reduction in the
  // paper); require at least a 40% cut to stay robust at reduced scale.
  EXPECT_LT(edf_drt, 0.6 * lf_drt);
}

TEST(Integration, BdfCreatesMoreRemoteTasksEdfFewer) {
  // Full paper scale (1440 blocks): the remote-task effect of Fig. 8(a) is a
  // tail-of-phase phenomenon and only shows reliably at real scale.
  const auto cfg = workload::default_sim_cluster();
  core::LocalityFirstScheduler lf;
  auto bdf = core::DegradedFirstScheduler::basic();
  auto edf = core::DegradedFirstScheduler::enhanced();
  long lf_remote = 0, bdf_remote = 0, edf_remote = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    util::Rng rng(seed);
    const auto job =
        workload::make_sim_job(0, workload::SimJobOptions{}, cfg.topology, rng);
    const auto failure = storage::single_node_failure(cfg.topology, rng);
    lf_remote += simulate(cfg, {job}, failure, lf, seed + 1).jobs[0].remote_tasks;
    bdf_remote +=
        simulate(cfg, {job}, failure, bdf, seed + 1).jobs[0].remote_tasks;
    edf_remote +=
        simulate(cfg, {job}, failure, edf, seed + 1).jobs[0].remote_tasks;
  }
  // Fig. 8(a): BDF steals locality (more remote tasks than LF); EDF's
  // locality preservation brings the count back below LF's.
  EXPECT_GT(bdf_remote, lf_remote);
  EXPECT_LT(edf_remote, bdf_remote);
  EXPECT_LE(edf_remote, lf_remote);
}

TEST(Integration, MultiJobEdfStillWins) {
  auto cfg = workload::default_sim_cluster();
  workload::SimJobOptions opts;
  opts.num_blocks = 240;
  opts.num_reducers = 8;
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();

  double lf_total = 0, edf_total = 0;
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    util::Rng rng(seed);
    const auto jobs =
        workload::make_multi_job_workload(3, 60.0, opts, cfg.topology, rng);
    const auto failure = storage::single_node_failure(cfg.topology, rng);
    const RunResult a = simulate(cfg, jobs, failure, lf, seed + 50);
    const RunResult b = simulate(cfg, jobs, failure, edf, seed + 50);
    for (const auto& j : a.jobs) lf_total += j.runtime();
    for (const auto& j : b.jobs) edf_total += j.runtime();
  }
  EXPECT_LT(edf_total, lf_total);
}

TEST(Integration, ExtremeCaseEdfBeatsBdf) {
  // §V-C: five bad nodes; BDF's blind degraded placement loses most of its
  // advantage, EDF keeps it.
  auto cfg = workload::extreme_sim_cluster(5);
  std::vector<net::NodeId> bad;
  for (net::NodeId n = 0; n < cfg.topology.num_nodes(); ++n) {
    if (cfg.time_scale(n) > 1.0) bad.push_back(n);
  }
  core::LocalityFirstScheduler lf;
  auto bdf = core::DegradedFirstScheduler::basic();
  auto edf = core::DegradedFirstScheduler::enhanced();
  double lf_t = 0, bdf_t = 0, edf_t = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng rng(seed);
    auto job = workload::make_extreme_case_job(0, cfg.topology, rng);
    const auto failure =
        storage::single_node_failure_excluding(cfg.topology, rng, bad);
    lf_t += simulate(cfg, {job}, failure, lf, seed).single_job_runtime();
    bdf_t += simulate(cfg, {job}, failure, bdf, seed).single_job_runtime();
    edf_t += simulate(cfg, {job}, failure, edf, seed).single_job_runtime();
  }
  EXPECT_LT(edf_t, lf_t);
  EXPECT_LT(edf_t, bdf_t);
}

// --- analysis model vs simulator --------------------------------------------------

TEST(Integration, SimulatorTracksAnalysisTrends) {
  // The closed-form model and the simulator must agree on the *direction*
  // of the (n,k) sweep: LF degrades as k grows, DF barely moves.
  auto cfg = workload::default_sim_cluster();
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();

  auto run_norm = [&](core::Scheduler& s, int n, int k, std::uint64_t seed) {
    workload::SimJobOptions opts;
    opts.num_blocks = 360;
    opts.n = n;
    opts.k = k;
    opts.num_reducers = 0;
    opts.shuffle_ratio = 0.0;
    util::Rng rng(seed);
    auto job = workload::make_sim_job(0, opts, cfg.topology, rng);
    const auto failure = storage::single_node_failure(cfg.topology, rng);
    const double failed =
        simulate(cfg, {job}, failure, s, seed).single_job_runtime();
    const double normal =
        simulate(cfg, {job}, storage::no_failure(), s, seed)
            .single_job_runtime();
    return failed / normal;
  };

  const double lf_small = run_norm(lf, 8, 6, 3);
  const double lf_large = run_norm(lf, 20, 15, 3);
  const double edf_large = run_norm(edf, 20, 15, 3);
  EXPECT_GT(lf_large, lf_small);   // LF hurt by larger k
  EXPECT_LT(edf_large, lf_large);  // EDF beats LF at large k
}

// --- the network's fair-share cross-check on real traffic -------------------------
//
// Network::set_fair_share_cross_check re-derives every rate with a naive
// per-flow pass after each recompute and checks the flow slab's indices. Here
// it runs under the traffic the simulator really produces: hedged degraded
// reads whose losers are cancelled, retries, shuffles, repairs and killed
// attempts. A divergence throws out of run(); the checked run must also be
// indistinguishable from the unchecked one.

/// Every network counter except the cross-check's own reference passes.
std::string net_fingerprint(const net::Network::Stats& s) {
  std::ostringstream os;
  os << s.flows_started << ' ' << s.flows_completed << ' '
     << s.flows_cancelled << ' ' << s.fast_paths << ' '
     << s.batched_recomputes << ' ' << s.component_recomputes << ' '
     << s.classes_active << ' ' << s.bytes_delivered;
  return os.str();
}

/// Hedged §V-B runs with 5% transient fetch failures, with and without
/// straggler service jitter. Without jitter a read's fetches start together,
/// so its losers often cross the line in the winner's completion batch and
/// are cancelled there; with jitter (10% stragglers at 4x) they are
/// cancelled mid-flight.
class HedgedCrossCheck : public ::testing::TestWithParam<bool> {};

TEST_P(HedgedCrossCheck, MatchesTheUncheckedRun) {
  const bool jitter = GetParam();
  mapreduce::ClusterConfig cfg = workload::default_sim_cluster();
  cfg.hedge.enabled = true;
  cfg.hedge.extra_sources = 2;
  cfg.straggler.fraction = 0.1;
  cfg.straggler.slowdown = 4.0;
  cfg.straggler.service_mean = jitter ? 0.5 : 0.0;
  cfg.straggler.fail_prob = 0.05;
  workload::SimJobOptions opts;
  opts.num_blocks = 240;
  opts.num_reducers = 10;
  util::Rng rng(17);
  const auto jobs =
      workload::make_multi_job_workload(3, 30.0, opts, cfg.topology, rng);
  const auto failure = storage::single_node_failure(cfg.topology, rng);

  struct Outcome {
    std::string trace;
    std::string net;
    std::uint64_t losers_cancelled = 0;
    std::uint64_t transient_failures = 0;
    std::uint64_t reference_passes = 0;
  };
  const auto run = [&](bool check) {
    const auto scheduler = core::make_scheduler("EDF");
    mapreduce::MapReduceSimulation sim(cfg, jobs, failure, *scheduler, 5);
    sim.network().set_fair_share_cross_check(check);
    const RunResult r = sim.run();
    Outcome out;
    std::ostringstream os;
    mapreduce::write_attempt_csv(os, r);
    mapreduce::write_job_csv(os, r);
    out.trace = os.str();
    out.net = net_fingerprint(sim.network().stats());
    out.losers_cancelled = r.hedge.losers_cancelled;
    out.transient_failures = r.hedge.transient_failures;
    out.reference_passes = sim.network().stats().full_recomputes;
    return out;
  };
  const Outcome checked = run(true);
  const Outcome plain = run(false);
  EXPECT_GT(checked.reference_passes, 0u);
  EXPECT_EQ(plain.reference_passes, 0u);
  EXPECT_GT(checked.losers_cancelled, 0u);
  EXPECT_GT(checked.transient_failures, 0u);
  EXPECT_EQ(checked.trace, plain.trace);
  EXPECT_EQ(checked.net, plain.net);
}

INSTANTIATE_TEST_SUITE_P(Integration, HedgedCrossCheck, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Jittered" : "Synchronous";
                         });

TEST(Integration, FairShareCrossCheckHoldsOnFaultyClusterRun) {
  cluster::ClusterOptions opts;
  opts.horizon = 1800.0;
  opts.warmup = 300.0;
  opts.lifecycle.node_mttf_hours = 1.0;
  opts.config.fault.compute_failures = true;
  opts.config.fault.attempt_failure_prob = 0.02;
  opts.config.fault.max_attempts = 6;

  const auto run = [&](bool check, std::uint64_t& reference_passes) {
    const auto scheduler = core::make_scheduler("BDF");
    cluster::ClusterSimulation sim(opts, *scheduler, 5);
    sim.network().set_fair_share_cross_check(check);
    const cluster::ClusterResult result = sim.run();
    EXPECT_GT(result.summary.failures_injected, 0);
    EXPECT_EQ(result.summary.jobs_submitted, result.summary.jobs_completed);
    std::ostringstream os;
    cluster::write_cluster_jsonl(os, result);
    mapreduce::write_attempt_csv(os, result.run);
    reference_passes = sim.network().stats().full_recomputes;
    return os.str() + net_fingerprint(sim.network().stats());
  };
  std::uint64_t checked_passes = 0, plain_passes = 0;
  const std::string checked = run(true, checked_passes);
  const std::string plain = run(false, plain_passes);
  EXPECT_GT(checked_passes, 0u);
  EXPECT_EQ(plain_passes, 0u);
  EXPECT_EQ(checked, plain);
}

}  // namespace
}  // namespace dfs
