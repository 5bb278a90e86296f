#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/mapreduce/map_phase.h"
#include "dfs/mapreduce/pending_pools.h"
#include "dfs/mapreduce/simulation.h"
#include "dfs/mapreduce/repair.h"
#include "dfs/mapreduce/speed_model.h"
#include "dfs/mapreduce/trace.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"

namespace dfs::mapreduce {
namespace {

/// A small failure-mode scenario that runs in milliseconds: 4 racks x 5
/// nodes, (8,6) RS over 120 blocks, deterministic-ish task times.
struct SmallCluster {
  ClusterConfig cfg;
  JobInput job;

  explicit SmallCluster(std::uint64_t placement_seed = 7,
                        int num_reducers = 5) {
    cfg.topology = net::Topology(4, 5);
    cfg.links.rack_up = 1000.0;  // bytes/sec; block = 1000 bytes -> 1 s
    cfg.links.rack_down = 1000.0;
    cfg.map_slots_per_node = 2;
    cfg.reduce_slots_per_node = 1;
    cfg.block_size = 1000.0;
    cfg.heartbeat_interval = 1.0;

    util::Rng rng(placement_seed);
    job.spec.id = 0;
    job.spec.map_time = {5.0, 0.5};
    job.spec.reduce_time = {4.0, 0.4};
    job.spec.num_reducers = num_reducers;
    job.spec.shuffle_ratio = 0.01;
    job.layout = std::make_shared<storage::StorageLayout>(
        storage::random_rack_constrained_layout(120, 8, 6, cfg.topology, rng));
    job.code = ec::make_reed_solomon(8, 6);
  }
};

RunResult run_one(const SmallCluster& sc, const storage::FailureScenario& f,
                  core::Scheduler& sched, std::uint64_t seed) {
  return simulate(sc.cfg, {sc.job}, f, sched, seed);
}

// --- pending pools ------------------------------------------------------------------

/// The all-node scans PendingPools replaces: the lowest-id node with the
/// longest live queue, inside `rack` or outside it; -1 when all are empty.
NodeId brute_best(const net::Topology& topo, const std::vector<long>& len,
                  RackId rack, bool inside) {
  NodeId best = -1;
  long best_len = 0;
  for (NodeId node = 0; node < topo.num_nodes(); ++node) {
    if ((topo.rack_of(node) == rack) != inside) continue;
    if (len[static_cast<std::size_t>(node)] > best_len) {
      best_len = len[static_cast<std::size_t>(node)];
      best = node;
    }
  }
  return best;
}

/// Random repush / invalidate / pop streams against a model of every
/// queue. After each step every queue length is checked, and best_remote /
/// best_in_rack are compared with the all-node scans: from every rack when
/// `every_rack`, otherwise from one random rack (and all racks every 25th
/// step). With `hot > 0`, half the mutations go to `hot` nodes spread over
/// the cluster, so queues grow long enough for ties and lead changes.
void random_ops_match_brute_force(const net::Topology& topo, int tasks,
                                  std::uint64_t seeds, int steps,
                                  bool every_rack, int hot) {
  const int nodes = topo.num_nodes();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    util::Rng rng(seed);
    PendingPools pools(topo);
    // live[node][task]: the model of which queue entries are live.
    std::vector<std::vector<bool>> live(static_cast<std::size_t>(nodes),
                                        std::vector<bool>(tasks, false));
    std::vector<long> len(static_cast<std::size_t>(nodes), 0);
    for (int step = 0; step < steps; ++step) {
      NodeId node = rng.uniform_int(0, nodes - 1);
      if (hot > 0 && rng.uniform_int(0, 1) == 0) {
        node = rng.uniform_int(0, hot - 1) * (nodes / hot);
      }
      const int task = rng.uniform_int(0, tasks - 1);
      const auto n = static_cast<std::size_t>(node);
      const auto t = static_cast<std::size_t>(task);
      switch (rng.uniform_int(0, 2)) {
        case 0:  // repush: only a non-live key may be (re)queued
          if (!live[n][t]) {
            pools.repush(node, task);
            live[n][t] = true;
            ++len[n];
          }
          break;
        case 1: {
          const bool was_live = live[n][t];
          ASSERT_EQ(pools.invalidate(node, task), was_live);
          if (was_live) {
            live[n][t] = false;
            --len[n];
          }
          break;
        }
        default: {
          const std::optional<int> popped = pools.pop(node);
          ASSERT_EQ(popped.has_value(), len[n] > 0);
          if (popped) {
            ASSERT_TRUE(live[n][static_cast<std::size_t>(*popped)]);
            live[n][static_cast<std::size_t>(*popped)] = false;
            --len[n];
          }
          break;
        }
      }
      for (NodeId v = 0; v < nodes; ++v) {
        ASSERT_EQ(pools.live_count(v), len[static_cast<std::size_t>(v)]);
      }
      // Query one random rack per step so stale cache entries also meet
      // later mutations, and every rack now and then.
      const RackId probe = rng.uniform_int(0, topo.num_racks() - 1);
      for (RackId r = 0; r < topo.num_racks(); ++r) {
        if (!every_rack && r != probe && step % 25 != 0) continue;
        ASSERT_EQ(pools.best_remote(r), brute_best(topo, len, r, false))
            << "seed " << seed << " step " << step << " rack " << r;
        ASSERT_EQ(pools.best_in_rack(r), brute_best(topo, len, r, true))
            << "seed " << seed << " step " << step << " rack " << r;
      }
    }
  }
}

TEST(PendingPools, RandomOpsMatchBruteForceScan) {
  random_ops_match_brute_force(net::Topology(std::vector<int>{3, 5, 4, 6, 2, 1}),
                               12, 20, 400, false, 0);
  // cluster_scale's shape: 200 racks of 10, every rack queried each step.
  random_ops_match_brute_force(net::Topology(200, 10), 8, 2, 300, true, 40);
}

TEST(PendingPools, ReclassifyRoundTripThroughMapPhase) {
  SmallCluster sc;
  sim::Simulator simulator;
  net::Network network(simulator, sc.cfg.topology, sc.cfg.links);
  storage::FailureScenario failure;
  MasterState state(simulator, network, sc.cfg, failure, util::Rng(1));
  MapPhase map(state);
  JobState fresh;
  fresh.layout = sc.job.layout;
  fresh.pending = PendingPools(sc.cfg.topology);
  state.jobs.push_back(std::move(fresh));
  JobState& j = state.jobs.back();
  map.activate_job(j);

  const net::Topology& topo = sc.cfg.topology;
  // Queue lengths recounted from the task table.
  const auto recount = [&] {
    std::vector<long> len(static_cast<std::size_t>(topo.num_nodes()), 0);
    for (const MapTaskState& t : j.maps) {
      if (t.assigned || t.done || t.locations.empty()) continue;
      for (const NodeId loc : t.locations) ++len[static_cast<std::size_t>(loc)];
    }
    return len;
  };
  const auto check = [&](const char* when) {
    SCOPED_TRACE(when);
    const std::vector<long> len = recount();
    std::vector<int> racks(static_cast<std::size_t>(topo.num_racks()), 0);
    for (const MapTaskState& t : j.maps) {
      if (t.assigned || t.done || t.locations.empty()) continue;
      for (const RackId r : t.location_racks) ++racks[static_cast<std::size_t>(r)];
    }
    for (NodeId v = 0; v < topo.num_nodes(); ++v) {
      ASSERT_EQ(j.pending.live_count(v), len[static_cast<std::size_t>(v)]);
    }
    for (RackId r = 0; r < topo.num_racks(); ++r) {
      ASSERT_EQ(j.pending.in_rack(r), racks[static_cast<std::size_t>(r)]);
      ASSERT_EQ(j.pending.best_remote(r), brute_best(topo, len, r, false));
      ASSERT_EQ(j.pending.best_in_rack(r), brute_best(topo, len, r, true));
    }
  };

  check("after activation");
  const std::vector<long> before = recount();
  // Fail the busiest node so the cached best of its rack must move.
  const NodeId busiest = brute_best(topo, before, -1, false);
  ASSERT_GE(busiest, 0);
  failure.fail(busiest);
  map.reclassify_after_failure(j, busiest);
  EXPECT_EQ(j.pending.live_count(busiest), 0);
  EXPECT_GT(j.pending_degraded.live_count(), 0);
  check("after failure");
  failure.restore(busiest);
  map.reclassify_after_repair(j, busiest);
  EXPECT_EQ(j.pending_degraded.live_count(), 0);
  check("after repair");
  EXPECT_EQ(recount(), before);
}

// --- basic execution invariants ---------------------------------------------------

TEST(MapReduce, NormalModeCompletesAllTasks) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const RunResult r = run_one(sc, storage::no_failure(), lf, 1);
  EXPECT_EQ(r.map_tasks.size(), 120u);
  EXPECT_EQ(r.reduce_tasks.size(), 5u);
  EXPECT_FALSE(r.data_loss);
  EXPECT_EQ(r.count_map_tasks(MapTaskKind::kDegraded), 0);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_GT(r.jobs[0].runtime(), 0.0);
  EXPECT_GE(r.jobs[0].map_phase_end, r.jobs[0].first_map_launch);
  EXPECT_GE(r.jobs[0].finish_time, r.jobs[0].map_phase_end);
}

TEST(MapReduce, TaskTimestampsOrdered) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  util::Rng frng(3);
  const auto failure = storage::single_node_failure(sc.cfg.topology, frng);
  const RunResult r = run_one(sc, failure, lf, 2);
  for (const auto& t : r.map_tasks) {
    EXPECT_GE(t.assign_time, 0.0);
    EXPECT_GE(t.fetch_done_time, t.assign_time);
    EXPECT_GE(t.finish_time, t.fetch_done_time);
  }
  for (const auto& t : r.reduce_tasks) {
    EXPECT_GE(t.shuffle_done_time, t.assign_time);
    EXPECT_GE(t.process_start_time, t.shuffle_done_time);
    EXPECT_GT(t.finish_time, t.process_start_time);
  }
}

TEST(MapReduce, FailureModeCreatesExpectedDegradedTasks) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const storage::FailureScenario failure({3});
  const RunResult r = run_one(sc, failure, lf, 3);
  // One degraded task per native block stored on the failed node.
  int lost_natives = 0;
  for (const storage::BlockId b : sc.job.layout->blocks_on_node(3)) {
    if (b.index < sc.job.layout->k()) ++lost_natives;
  }
  EXPECT_GT(lost_natives, 0);
  EXPECT_EQ(r.count_map_tasks(MapTaskKind::kDegraded), lost_natives);
  EXPECT_FALSE(r.data_loss);
  // No task may run on the failed node.
  for (const auto& t : r.map_tasks) EXPECT_NE(t.exec_node, 3);
  for (const auto& t : r.reduce_tasks) EXPECT_NE(t.exec_node, 3);
}

TEST(MapReduce, DegradedTasksFetchKSurvivingSources) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const storage::FailureScenario failure({0});
  const RunResult r = run_one(sc, failure, lf, 4);
  for (const auto& t : r.map_tasks) {
    if (t.kind != MapTaskKind::kDegraded) {
      EXPECT_TRUE(t.sources.empty());
      continue;
    }
    EXPECT_EQ(t.sources.size(), 6u);  // k = 6
    EXPECT_GT(t.degraded_read_time(), 0.0);
    for (const auto& src : t.sources) {
      EXPECT_FALSE(failure.is_failed(src.node));
      EXPECT_EQ(src.block.stripe, t.block.stripe);
    }
  }
}

TEST(MapReduce, EachBlockProcessedExactlyOnce) {
  SmallCluster sc;
  core::DegradedFirstScheduler edf = core::DegradedFirstScheduler::enhanced();
  const storage::FailureScenario failure({7});
  const RunResult r = run_one(sc, failure, edf, 5);
  std::set<std::pair<int, int>> blocks;
  for (const auto& t : r.map_tasks) {
    EXPECT_TRUE(blocks.insert({t.block.stripe, t.block.index}).second);
  }
  EXPECT_EQ(blocks.size(), 120u);
}

TEST(MapReduce, LocalTaskKindsConsistentWithTopology) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const RunResult r = run_one(sc, storage::no_failure(), lf, 6);
  for (const auto& t : r.map_tasks) {
    const NodeId home = sc.job.layout->node_of(t.block);
    switch (t.kind) {
      case MapTaskKind::kNodeLocal:
        EXPECT_EQ(t.exec_node, home);
        EXPECT_DOUBLE_EQ(t.fetch_done_time, t.assign_time);
        break;
      case MapTaskKind::kRackLocal:
        EXPECT_NE(t.exec_node, home);
        EXPECT_TRUE(sc.cfg.topology.same_rack(t.exec_node, home));
        break;
      case MapTaskKind::kRemote:
        EXPECT_FALSE(sc.cfg.topology.same_rack(t.exec_node, home));
        break;
      case MapTaskKind::kDegraded:
        ADD_FAILURE() << "no degraded tasks in normal mode";
        break;
    }
  }
}

// --- determinism -------------------------------------------------------------------

TEST(MapReduce, SameSeedSameTrace) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const storage::FailureScenario failure({2});
  const RunResult a = run_one(sc, failure, lf, 42);
  const RunResult b = run_one(sc, failure, lf, 42);
  ASSERT_EQ(a.map_tasks.size(), b.map_tasks.size());
  for (std::size_t i = 0; i < a.map_tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.map_tasks[i].assign_time, b.map_tasks[i].assign_time);
    EXPECT_DOUBLE_EQ(a.map_tasks[i].finish_time, b.map_tasks[i].finish_time);
    EXPECT_EQ(a.map_tasks[i].exec_node, b.map_tasks[i].exec_node);
  }
  EXPECT_DOUBLE_EQ(a.jobs[0].runtime(), b.jobs[0].runtime());
}

TEST(MapReduce, DifferentSeedsDifferentTrace) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const RunResult a = run_one(sc, storage::no_failure(), lf, 1);
  const RunResult b = run_one(sc, storage::no_failure(), lf, 2);
  EXPECT_NE(a.jobs[0].runtime(), b.jobs[0].runtime());
}

TEST(MapReduce, NormalModeSchedulersIdentical) {
  // Without degraded tasks, Algorithms 1, 2 and 3 take the same branch at
  // every heartbeat, so the whole trace must match exactly.
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  auto bdf = core::DegradedFirstScheduler::basic();
  auto edf = core::DegradedFirstScheduler::enhanced();
  const RunResult a = run_one(sc, storage::no_failure(), lf, 9);
  const RunResult b = run_one(sc, storage::no_failure(), bdf, 9);
  const RunResult c = run_one(sc, storage::no_failure(), edf, 9);
  EXPECT_DOUBLE_EQ(a.jobs[0].runtime(), b.jobs[0].runtime());
  EXPECT_DOUBLE_EQ(a.jobs[0].runtime(), c.jobs[0].runtime());
}

// --- scheduling behaviour ------------------------------------------------------------

TEST(MapReduce, DegradedFirstLaunchesDegradedEarlier) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  auto bdf = core::DegradedFirstScheduler::basic();
  const storage::FailureScenario failure({0});
  const RunResult rl = run_one(sc, failure, lf, 11);
  const RunResult rb = run_one(sc, failure, bdf, 11);

  auto mean_degraded_assign = [](const RunResult& r) {
    double sum = 0;
    int cnt = 0;
    for (const auto& t : r.map_tasks) {
      if (t.kind == MapTaskKind::kDegraded) {
        sum += t.assign_time;
        ++cnt;
      }
    }
    return sum / cnt;
  };
  EXPECT_LT(mean_degraded_assign(rb), mean_degraded_assign(rl));
}

TEST(MapReduce, LocalityFirstRunsDegradedLast) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const storage::FailureScenario failure({0});
  const RunResult r = run_one(sc, failure, lf, 12);
  double latest_nondegraded_assign = 0.0;
  double earliest_degraded_assign = 1e18;
  for (const auto& t : r.map_tasks) {
    if (t.kind == MapTaskKind::kDegraded) {
      earliest_degraded_assign =
          std::min(earliest_degraded_assign, t.assign_time);
    } else {
      latest_nondegraded_assign =
          std::max(latest_nondegraded_assign, t.assign_time);
    }
  }
  // LF assigns every degraded task only once no local/remote task is left,
  // i.e. within the last heartbeat rounds of the map phase.
  EXPECT_GT(earliest_degraded_assign,
            latest_nondegraded_assign - 3.0 * sc.cfg.heartbeat_interval);
}

TEST(MapReduce, DegradedFirstReducesFailureModeRuntime) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  // Average over several seeds to be robust to scheduling noise.
  double lf_total = 0.0;
  double edf_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng frng(seed + 100);
    const auto failure = storage::single_node_failure(sc.cfg.topology, frng);
    lf_total += run_one(sc, failure, lf, seed).jobs[0].runtime();
    edf_total += run_one(sc, failure, edf, seed).jobs[0].runtime();
  }
  EXPECT_LT(edf_total, lf_total);
}

TEST(MapReduce, DegradedReadTimeShorterUnderDegradedFirst) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  double lf_total = 0.0;
  double edf_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const storage::FailureScenario failure({static_cast<NodeId>(seed)});
    lf_total += run_one(sc, failure, lf, seed).mean_degraded_read_time();
    edf_total += run_one(sc, failure, edf, seed).mean_degraded_read_time();
  }
  EXPECT_LT(edf_total, lf_total);
}

TEST(MapReduce, FairDegradedFirstPacesDegradedUnderFailure) {
  // FAIR+DF applies the degraded-first pacing rule inside the fair queue:
  // degraded maps launch throughout the map phase rather than piling up at
  // its end the way the plain FAIR (LF-style drain) leaves them.
  SmallCluster sc;
  const auto fair = core::make_scheduler("FAIR");
  const auto fair_df = core::make_scheduler("FAIR+DF");
  const storage::FailureScenario failure({0});
  double fair_total = 0.0;
  double fair_df_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto mean_degraded_assign = [](const RunResult& r) {
      double sum = 0.0;
      int cnt = 0;
      for (const auto& t : r.map_tasks) {
        if (t.kind == MapTaskKind::kDegraded) {
          sum += t.assign_time;
          ++cnt;
        }
      }
      return sum / cnt;
    };
    const RunResult rf = run_one(sc, failure, *fair, seed);
    const RunResult rd = run_one(sc, failure, *fair_df, seed);
    EXPECT_EQ(rf.map_tasks.size(), 120u);
    EXPECT_EQ(rd.map_tasks.size(), 120u);
    fair_total += mean_degraded_assign(rf);
    fair_df_total += mean_degraded_assign(rd);
  }
  EXPECT_LT(fair_df_total, fair_total);
}

TEST(MapReduce, FairDegradedFirstKeepsPacingInvariant) {
  // Replay the FAIR+DF assignment sequence and check the paper's pacing
  // rule at every degraded launch: the degraded fraction must never run
  // ahead of the overall map fraction (cost-weighted pacing implies the
  // count-based bound here because every degraded read costs >= 1).
  SmallCluster sc;
  const auto fair_df = core::make_scheduler("FAIR+DF");
  const storage::FailureScenario failure({0});
  const RunResult r = run_one(sc, failure, *fair_df, 21);
  std::vector<const MapTaskRecord*> tasks;
  for (const auto& t : r.map_tasks) tasks.push_back(&t);
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const MapTaskRecord* a, const MapTaskRecord* b) {
                     return a->assign_time < b->assign_time;
                   });
  const double total_m = static_cast<double>(tasks.size());
  double total_md = 0.0;
  for (const auto* t : tasks) {
    if (t->kind == MapTaskKind::kDegraded) ++total_md;
  }
  ASSERT_GT(total_md, 0.0);
  double m = 0.0, md = 0.0;
  for (const auto* t : tasks) {
    if (t->kind == MapTaskKind::kDegraded) {
      // The rule gates the launch on the counts *before* it: a degraded
      // task may start only while degraded progress trails overall
      // progress. A little slack absorbs same-heartbeat slot fills.
      EXPECT_LE(md / total_md, m / total_m + 0.05)
          << "degraded launch ran ahead of the pacing rule at t="
          << t->assign_time;
      ++md;
    }
    ++m;
  }
}

TEST(MapReduce, DelaySchedulerDegradedModeCompletes) {
  // DELAY waits out non-local launches but must not starve degraded tasks:
  // every block still runs exactly once and the job drains.
  SmallCluster sc;
  const auto delay = core::make_scheduler("DELAY");
  const storage::FailureScenario failure({0});
  const RunResult r = run_one(sc, failure, *delay, 13);
  EXPECT_EQ(r.map_tasks.size(), 120u);
  EXPECT_FALSE(r.data_loss);
  int degraded = 0;
  for (const auto& t : r.map_tasks) {
    if (t.kind == MapTaskKind::kDegraded) ++degraded;
  }
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(r.jobs[0].local_tasks + r.jobs[0].remote_tasks +
                r.jobs[0].degraded_tasks,
            120);
}

TEST(MapReduce, DelaySchedulerDefersDegradedRelativeToFairDf) {
  // The delay scheduler keeps LF's degraded-last shape (it only reorders
  // local vs remote), so its degraded launches land later than FAIR+DF's
  // paced ones on the same failure.
  SmallCluster sc;
  const auto delay = core::make_scheduler("DELAY");
  const auto fair_df = core::make_scheduler("FAIR+DF");
  double delay_total = 0.0;
  double fair_df_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const storage::FailureScenario failure({static_cast<NodeId>(seed)});
    auto mean_degraded_assign = [](const RunResult& r) {
      double sum = 0.0;
      int cnt = 0;
      for (const auto& t : r.map_tasks) {
        if (t.kind == MapTaskKind::kDegraded) {
          sum += t.assign_time;
          ++cnt;
        }
      }
      return cnt > 0 ? sum / cnt : 0.0;
    };
    delay_total += mean_degraded_assign(run_one(sc, failure, *delay, seed));
    fair_df_total +=
        mean_degraded_assign(run_one(sc, failure, *fair_df, seed));
  }
  EXPECT_LT(fair_df_total, delay_total);
}

// --- speed model -----------------------------------------------------------------

TEST(SpeedModel, UniformMaterializesEmpty) {
  const SpeedModel m = SpeedModel::parse("uniform");
  EXPECT_TRUE(m.uniform());
  EXPECT_TRUE(m.materialize(40).empty());
  EXPECT_EQ(m.describe(), "uniform");
  EXPECT_TRUE(SpeedModel::parse("").uniform());
}

TEST(SpeedModel, BimodalRampSpreadsSlowNodesEvenly) {
  const SpeedModel m = SpeedModel::parse("bimodal:0.25,2");
  const auto scale = m.materialize(40);
  ASSERT_EQ(scale.size(), 40u);
  int slow = 0;
  for (const double s : scale) {
    EXPECT_TRUE(s == 1.0 || s == 2.0);
    if (s == 2.0) ++slow;
  }
  EXPECT_EQ(slow, 10);
  // The integer ramp puts exactly one slow node in every group of four, so
  // a 10-node rack never collects more than 3 of the 10 slow nodes.
  for (int rack = 0; rack < 4; ++rack) {
    int in_rack = 0;
    for (int n = rack * 10; n < (rack + 1) * 10; ++n) {
      if (scale[static_cast<std::size_t>(n)] == 2.0) ++in_rack;
    }
    EXPECT_GE(in_rack, 2);
    EXPECT_LE(in_rack, 3);
  }
}

TEST(SpeedModel, BimodalSeedShufflesDeterministically) {
  const SpeedModel a = SpeedModel::parse("bimodal:0.5,3,42");
  const SpeedModel b = SpeedModel::parse("bimodal:0.5,3,42");
  const SpeedModel c = SpeedModel::parse("bimodal:0.5,3,43");
  EXPECT_EQ(a.materialize(20), b.materialize(20));
  EXPECT_NE(a.materialize(20), c.materialize(20));
  // Same multiset of factors whatever the seed.
  auto sorted = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(a.materialize(20)), sorted(c.materialize(20)));
}

TEST(SpeedModel, ExplicitVectorTiles) {
  const SpeedModel m = SpeedModel::parse("vector:1,2.5");
  const auto scale = m.materialize(5);
  EXPECT_EQ(scale, (std::vector<double>{1.0, 2.5, 1.0, 2.5, 1.0}));
  EXPECT_EQ(m.describe(), "vector:1,2.5");
}

TEST(SpeedModel, RejectsMalformedSpecs) {
  EXPECT_THROW(SpeedModel::parse("warp9"), std::invalid_argument);
  EXPECT_THROW(SpeedModel::parse("bimodal:0.5"), std::invalid_argument);
  EXPECT_THROW(SpeedModel::parse("bimodal:-0.1,2"), std::invalid_argument);
  EXPECT_THROW(SpeedModel::parse("bimodal:1.5,2"), std::invalid_argument);
  EXPECT_THROW(SpeedModel::parse("bimodal:0.5,0"), std::invalid_argument);
  EXPECT_THROW(SpeedModel::parse("bimodal:0.5,-2"), std::invalid_argument);
  EXPECT_THROW(SpeedModel::parse("vector:"), std::invalid_argument);
  EXPECT_THROW(SpeedModel::parse("vector:1,0"), std::invalid_argument);
  EXPECT_THROW(SpeedModel::parse("vector:1,-3"), std::invalid_argument);
}

TEST(SpeedModel, MaterializedProfileSlowsSimulatedTasks) {
  // End-to-end: a "vector:1,3" profile through ClusterConfig must reproduce
  // the TimeScaleSlowsProcessing behavior, and the attempt trace must carry
  // the factor.
  ClusterConfig cfg;
  cfg.topology = net::Topology(1, 2);
  cfg.links = net::LinkConfig{};
  cfg.map_slots_per_node = 1;
  cfg.reduce_slots_per_node = 1;
  cfg.block_size = 100.0;
  cfg.heartbeat_interval = 1.0;
  cfg.node_time_scale = SpeedModel::parse("vector:1,3").materialize(2);

  JobInput job;
  job.spec.map_time = {10.0, 0.0};
  job.spec.num_reducers = 0;
  job.spec.shuffle_ratio = 0.0;
  job.layout = std::make_shared<storage::StorageLayout>(
      storage::round_robin_layout(8, 2, 1, 2));
  job.code = ec::make_replication(2);

  core::LocalityFirstScheduler lf;
  const RunResult r = simulate(cfg, {job}, storage::no_failure(), lf, 5);
  for (const auto& t : r.map_tasks) {
    const double d = t.finish_time - t.fetch_done_time;
    if (t.exec_node == 0) {
      EXPECT_DOUBLE_EQ(d, 10.0);
      EXPECT_DOUBLE_EQ(t.time_scale, 1.0);
    } else {
      EXPECT_DOUBLE_EQ(d, 30.0);
      EXPECT_DOUBLE_EQ(t.time_scale, 3.0);
    }
  }
}

// --- heterogeneity, failures, multi-job ------------------------------------------------

TEST(MapReduce, TimeScaleSlowsProcessing) {
  ClusterConfig cfg;
  cfg.topology = net::Topology(1, 2);
  cfg.links = net::LinkConfig{};  // defaults fine; no degraded reads here
  cfg.map_slots_per_node = 1;
  cfg.reduce_slots_per_node = 1;
  cfg.block_size = 100.0;
  cfg.heartbeat_interval = 1.0;
  cfg.node_time_scale = {1.0, 3.0};

  JobInput job;
  job.spec.map_time = {10.0, 0.0};
  job.spec.num_reducers = 0;
  job.spec.shuffle_ratio = 0.0;
  job.layout = std::make_shared<storage::StorageLayout>(
      storage::round_robin_layout(8, 2, 1, 2));
  job.code = ec::make_replication(2);

  core::LocalityFirstScheduler lf;
  const RunResult r = simulate(cfg, {job}, storage::no_failure(), lf, 5);
  double fast = 0, slow = 0;
  for (const auto& t : r.map_tasks) {
    const double d = t.finish_time - t.fetch_done_time;
    if (t.exec_node == 0) {
      fast = d;
    } else {
      slow = d;
    }
  }
  EXPECT_DOUBLE_EQ(fast, 10.0);
  EXPECT_DOUBLE_EQ(slow, 30.0);
}

TEST(MapReduce, DoubleFailureStillCompletes) {
  SmallCluster sc;
  auto edf = core::DegradedFirstScheduler::enhanced();
  util::Rng frng(5);
  const auto failure = storage::double_node_failure(sc.cfg.topology, frng);
  const RunResult r = run_one(sc, failure, edf, 13);
  EXPECT_EQ(r.map_tasks.size(), 120u);
  EXPECT_FALSE(r.data_loss);  // (8,6) tolerates two losses per stripe
}

TEST(MapReduce, RackFailureStillCompletes) {
  SmallCluster sc;
  auto edf = core::DegradedFirstScheduler::enhanced();
  util::Rng frng(6);
  const auto failure = storage::rack_failure(sc.cfg.topology, frng);
  const RunResult r = run_one(sc, failure, edf, 14);
  EXPECT_EQ(r.map_tasks.size(), 120u);
  // The placement rule caps losses per stripe at n-k, so no data loss.
  EXPECT_FALSE(r.data_loss);
}

TEST(MapReduce, MapOnlyJobFinishesAtMapPhaseEnd) {
  SmallCluster sc;
  JobInput job = sc.job;
  job.spec.num_reducers = 0;
  job.spec.shuffle_ratio = 0.0;
  core::LocalityFirstScheduler lf;
  const RunResult r = simulate(sc.cfg, {job}, storage::no_failure(), lf, 15);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.jobs[0].finish_time, r.jobs[0].map_phase_end);
  EXPECT_TRUE(r.reduce_tasks.empty());
}

TEST(MapReduce, MultiJobFifoOrdering) {
  SmallCluster sc;
  JobInput job1 = sc.job;
  JobInput job2 = sc.job;
  job2.spec.id = 1;
  job2.spec.submit_time = 30.0;
  core::LocalityFirstScheduler lf;
  const RunResult r =
      simulate(sc.cfg, {job1, job2}, storage::no_failure(), lf, 16);
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_LT(r.jobs[0].first_map_launch, r.jobs[1].first_map_launch);
  EXPECT_GE(r.jobs[1].first_map_launch, 30.0);
  EXPECT_GT(r.jobs[0].runtime(), 0.0);
  EXPECT_GT(r.jobs[1].runtime(), 0.0);
  EXPECT_EQ(r.map_tasks.size(), 240u);
}

TEST(MapReduce, ShuffleVolumeLengthensRuntime) {
  SmallCluster light;
  SmallCluster heavy;
  heavy.job.spec.shuffle_ratio = 0.5;
  core::LocalityFirstScheduler lf;
  const double t_light =
      run_one(light, storage::no_failure(), lf, 17).jobs[0].runtime();
  const double t_heavy =
      run_one(heavy, storage::no_failure(), lf, 17).jobs[0].runtime();
  EXPECT_GT(t_heavy, t_light);
}

TEST(MapReduce, UnrecoverableStripeFlagsDataLoss) {
  // (8,6) with three specific failed nodes covering 3 blocks of one stripe.
  SmallCluster sc;
  const auto& layout = *sc.job.layout;
  std::vector<NodeId> failed;
  for (int b = 0; b < 3; ++b) failed.push_back(layout.node_of({0, b}));
  std::sort(failed.begin(), failed.end());
  failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
  ASSERT_EQ(failed.size(), 3u);  // placement rule: distinct nodes
  auto edf = core::DegradedFirstScheduler::enhanced();
  const RunResult r =
      run_one(sc, storage::FailureScenario(failed), edf, 18);
  EXPECT_TRUE(r.data_loss);
  // The run still terminates and processes every recoverable block.
  EXPECT_EQ(r.map_tasks.size(), 120u);
}

TEST(MapReduce, RunResultJobMetricsCounts) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const storage::FailureScenario failure({1});
  const RunResult r = run_one(sc, failure, lf, 19);
  const auto& m = r.jobs[0];
  EXPECT_EQ(m.local_tasks + m.remote_tasks + m.degraded_tasks, 120);
  EXPECT_EQ(m.degraded_tasks, r.count_map_tasks(MapTaskKind::kDegraded));
  EXPECT_EQ(m.remote_tasks, r.count_map_tasks(MapTaskKind::kRemote));
}

TEST(MapReduce, MoreReducersThanSlotsStillCompletes) {
  SmallCluster sc(7, /*num_reducers=*/45);  // 20 nodes x 1 reduce slot
  core::LocalityFirstScheduler lf;
  const RunResult r = run_one(sc, storage::no_failure(), lf, 71);
  EXPECT_EQ(r.reduce_tasks.size(), 45u);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_GT(r.jobs[0].finish_time, r.jobs[0].map_phase_end);
}

TEST(MapReduce, CoarseHeartbeatsStillComplete) {
  SmallCluster sc;
  sc.cfg.heartbeat_interval = 9.0;  // longer than a map task
  auto edf = core::DegradedFirstScheduler::enhanced();
  const storage::FailureScenario failure({5});
  const RunResult r = run_one(sc, failure, edf, 72);
  EXPECT_EQ(r.map_tasks.size(), 120u);
  EXPECT_FALSE(r.data_loss);
}

// --- stripe affinity ------------------------------------------------------------------

TEST(StripeAffinity, DegradedTasksLandOnStripeMateHolders) {
  SmallCluster sc;
  core::DegradedFirstOptions opts;
  opts.stripe_affinity = true;
  core::DegradedFirstScheduler sched(opts);
  const storage::FailureScenario failure({0});
  const RunResult r = simulate(sc.cfg, {sc.job}, failure, sched, 61,
                               storage::SourceSelection::kPreferSameRack);
  int on_mate = 0, degraded = 0;
  int self_sources = 0;
  for (const auto& t : r.map_tasks) {
    if (t.kind != MapTaskKind::kDegraded) continue;
    ++degraded;
    bool mate = false;
    for (int b = 0; b < sc.job.layout->n(); ++b) {
      if (b == t.block.index) continue;
      if (sc.job.layout->node_of({t.block.stripe, b}) == t.exec_node) {
        mate = true;
      }
    }
    if (mate) ++on_mate;
    for (const auto& src : t.sources) {
      if (src.node == t.exec_node) ++self_sources;
    }
  }
  ASSERT_GT(degraded, 0);
  // Affinity placement puts (nearly) every degraded task on a stripe-mate
  // holder, and the planner then reads that block for free.
  EXPECT_GE(on_mate, degraded - 1);  // tail fallback may miss
  EXPECT_GT(self_sources, 0);
}

TEST(StripeAffinity, ShortensDegradedReadsVsPlainEdf) {
  SmallCluster sc;
  auto edf = core::DegradedFirstScheduler::enhanced();
  core::DegradedFirstOptions opts;
  opts.stripe_affinity = true;
  core::DegradedFirstScheduler affinity(opts);
  double edf_drt = 0, aff_drt = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const storage::FailureScenario failure({static_cast<NodeId>(seed * 2)});
    edf_drt += simulate(sc.cfg, {sc.job}, failure, edf, seed,
                        storage::SourceSelection::kPreferSameRack)
                   .mean_degraded_read_time();
    aff_drt += simulate(sc.cfg, {sc.job}, failure, affinity, seed,
                        storage::SourceSelection::kPreferSameRack)
                   .mean_degraded_read_time();
  }
  EXPECT_LT(aff_drt, edf_drt);
}

// --- speculative execution ---------------------------------------------------------------

TEST(Speculation, BacksUpStragglersOnSlowNodes) {
  SmallCluster sc;
  sc.cfg.speculative_execution = true;
  // One crippled node: its tasks run 20x slower than everyone else's.
  sc.cfg.node_time_scale.assign(
      static_cast<std::size_t>(sc.cfg.topology.num_nodes()), 1.0);
  sc.cfg.node_time_scale[0] = 20.0;
  core::LocalityFirstScheduler lf;
  const RunResult r = run_one(sc, storage::no_failure(), lf, 51);
  EXPECT_GT(r.speculative_attempts(), 0);
  // Backups of the crippled node's tasks should win.
  int backup_wins = 0;
  for (const auto& t : r.map_tasks) {
    if (t.speculative && t.winner) ++backup_wins;
  }
  EXPECT_GT(backup_wins, 0);
  // Every task still completed exactly once: records = tasks + attempts.
  EXPECT_EQ(static_cast<int>(r.map_tasks.size()),
            120 + r.speculative_attempts());
  EXPECT_EQ(r.speculative_losses(),
            r.speculative_attempts());  // wins + losses pair up one-to-one
}

TEST(Speculation, SpeculationShortensStragglerTail) {
  SmallCluster base;
  base.cfg.node_time_scale.assign(
      static_cast<std::size_t>(base.cfg.topology.num_nodes()), 1.0);
  base.cfg.node_time_scale[0] = 20.0;
  SmallCluster spec = base;
  spec.cfg.speculative_execution = true;
  core::LocalityFirstScheduler lf;
  const double without =
      run_one(base, storage::no_failure(), lf, 52).single_job_runtime();
  const double with_spec =
      run_one(spec, storage::no_failure(), lf, 52).single_job_runtime();
  EXPECT_LT(with_spec, without);
}

TEST(Speculation, DisabledByDefault) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const RunResult r = run_one(sc, storage::no_failure(), lf, 53);
  EXPECT_EQ(r.speculative_attempts(), 0);
  EXPECT_EQ(r.map_tasks.size(), 120u);
}

TEST(Speculation, HomogeneousClusterSpeculatesFarLessThanSkewedOne) {
  SmallCluster homo;
  homo.cfg.speculative_execution = true;
  SmallCluster skewed;
  skewed.cfg.speculative_execution = true;
  skewed.cfg.node_time_scale.assign(
      static_cast<std::size_t>(skewed.cfg.topology.num_nodes()), 1.0);
  skewed.cfg.node_time_scale[0] = 20.0;
  skewed.cfg.node_time_scale[1] = 20.0;
  core::LocalityFirstScheduler lf;
  const int homo_attempts =
      run_one(homo, storage::no_failure(), lf, 54).speculative_attempts();
  const int skewed_attempts =
      run_one(skewed, storage::no_failure(), lf, 54).speculative_attempts();
  // With N(5, 0.5) task times, only occasional end-of-phase tail tasks get
  // backed up; crippled nodes trigger far more.
  EXPECT_LE(homo_attempts, 10);
  EXPECT_GT(skewed_attempts, homo_attempts);
}

// --- background repair -----------------------------------------------------------------

TEST(Repair, RebuildsEveryLostBlock) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const storage::FailureScenario failure({4});
  mapreduce::MapReduceSimulation sim(sc.cfg, {sc.job}, failure, lf, 41);
  mapreduce::RepairProcess::Options opts;
  opts.concurrency = 2;
  opts.block_size = sc.cfg.block_size;
  mapreduce::RepairProcess repair(sim.simulator(), sim.network(),
                                  *sc.job.layout, *sc.job.code, failure, opts,
                                  util::Rng(5));
  bool completed = false;
  repair.on_complete = [&] { completed = true; };
  repair.start();
  const RunResult r = sim.run();
  EXPECT_FALSE(r.data_loss);
  EXPECT_TRUE(repair.done());
  EXPECT_TRUE(completed);
  // Every block (native + parity) of the failed node was rebuilt.
  EXPECT_EQ(repair.stats().blocks_repaired,
            static_cast<int>(sc.job.layout->blocks_on_node(4).size()));
  EXPECT_EQ(repair.stats().blocks_unrecoverable, 0);
  EXPECT_GT(repair.stats().finish_time, 0.0);
}

TEST(Repair, NoFailureNothingToDo) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  mapreduce::MapReduceSimulation sim(sc.cfg, {sc.job}, storage::no_failure(),
                                     lf, 42);
  mapreduce::RepairProcess::Options opts;
  opts.block_size = sc.cfg.block_size;
  mapreduce::RepairProcess repair(sim.simulator(), sim.network(),
                                  *sc.job.layout, *sc.job.code,
                                  storage::no_failure(), opts, util::Rng(6));
  repair.start();
  sim.run();
  EXPECT_EQ(repair.stats().blocks_repaired, 0);
  EXPECT_TRUE(repair.done());
}

TEST(Repair, ConcurrentRepairContendsWithDegradedReads) {
  // Degraded-first runs its degraded reads early, exactly when the repair
  // daemon's reconstruction reads are in flight: the shared rack links make
  // the job's degraded reads measurably slower.
  SmallCluster sc;
  auto edf = core::DegradedFirstScheduler::enhanced();
  const storage::FailureScenario failure({2});
  const double base = simulate(sc.cfg, {sc.job}, failure, edf, 43)
                          .mean_degraded_read_time();
  mapreduce::MapReduceSimulation sim(sc.cfg, {sc.job}, failure, edf, 43);
  mapreduce::RepairProcess::Options opts;
  opts.concurrency = 8;
  opts.block_size = sc.cfg.block_size;
  mapreduce::RepairProcess repair(sim.simulator(), sim.network(),
                                  *sc.job.layout, *sc.job.code, failure, opts,
                                  util::Rng(7));
  repair.start();
  const double with_repair = sim.run().mean_degraded_read_time();
  EXPECT_GT(with_repair, base);
}

TEST(Repair, UnrecoverableBlocksCounted) {
  SmallCluster sc;
  // Destroy > n-k blocks of stripe 0.
  std::vector<NodeId> failed;
  for (int b = 0; b < 3; ++b) failed.push_back(sc.job.layout->node_of({0, b}));
  const storage::FailureScenario failure(failed);
  core::LocalityFirstScheduler lf;
  mapreduce::MapReduceSimulation sim(sc.cfg, {sc.job}, failure, lf, 44);
  mapreduce::RepairProcess::Options opts;
  opts.block_size = sc.cfg.block_size;
  mapreduce::RepairProcess repair(sim.simulator(), sim.network(),
                                  *sc.job.layout, *sc.job.code, failure, opts,
                                  util::Rng(8));
  repair.start();
  sim.run();
  EXPECT_GE(repair.stats().blocks_unrecoverable, 3);
  EXPECT_TRUE(repair.done());
}

/// The first rebuild of a concurrency-1 RepairProcess whose Rng is seeded
/// with `seed`: the process draws the target, then plans the sources, on
/// that stream.
struct FirstRebuild {
  NodeId target = -1;
  std::vector<storage::DegradedSource> sources;
};

FirstRebuild first_rebuild(const SmallCluster& sc,
                           const storage::FailureScenario& failure,
                           storage::BlockId block, std::uint64_t seed) {
  util::Rng rng(seed);
  FirstRebuild out;
  do {
    out.target = rng.uniform_int(0, sc.cfg.topology.num_nodes() - 1);
  } while (failure.is_failed(out.target));
  const storage::DegradedReadPlanner planner(
      *sc.job.layout, sc.cfg.topology, *sc.job.code,
      storage::SourceSelection::kRandom);
  out.sources = *planner.plan(block, out.target, failure, rng);
  return out;
}

/// A source of `first` across a rack link, so its fetch is still in flight
/// half a second in (a same-rack fetch crosses no limited link).
NodeId remote_source(const SmallCluster& sc, const FirstRebuild& first) {
  const net::Topology& topo = sc.cfg.topology;
  for (const storage::DegradedSource& src : first.sources) {
    if (topo.rack_of(src.node) != topo.rack_of(first.target)) return src.node;
  }
  return -1;
}

TEST(Repair, TargetDeathRequeuesTheBlock) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  storage::FailureScenario failure({4});
  const auto lost = sc.job.layout->blocks_on_node(4);
  const FirstRebuild first = first_rebuild(sc, failure, lost.front(), 9);
  mapreduce::MapReduceSimulation sim(sc.cfg, {sc.job}, failure, lf, 45);
  mapreduce::RepairProcess::Options opts;
  opts.block_size = sc.cfg.block_size;
  mapreduce::RepairProcess repair(sim.simulator(), sim.network(),
                                  *sc.job.layout, *sc.job.code, failure, opts,
                                  util::Rng(9));
  ASSERT_NE(remote_source(sc, first), -1);  // still reading at t=0.5
  sim.simulator().schedule_at(0.5, [&] {
    EXPECT_EQ(repair.stats().blocks_repaired, 0);
    failure.fail(first.target);
    repair.on_node_failed(first.target);
  });
  repair.start();
  sim.run();
  EXPECT_TRUE(repair.done());
  EXPECT_EQ(repair.stats().blocks_requeued, 1);
  EXPECT_EQ(repair.stats().blocks_repaired, static_cast<int>(lost.size()));
  EXPECT_EQ(repair.stats().blocks_unrecoverable, 0);
}

TEST(Repair, SourceDeathReplansTheRead) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  storage::FailureScenario failure({4});
  const auto lost = sc.job.layout->blocks_on_node(4);
  const FirstRebuild first = first_rebuild(sc, failure, lost.front(), 10);
  const NodeId source = remote_source(sc, first);
  ASSERT_NE(source, -1);
  mapreduce::MapReduceSimulation sim(sc.cfg, {sc.job}, failure, lf, 46);
  mapreduce::RepairProcess::Options opts;
  opts.block_size = sc.cfg.block_size;
  mapreduce::RepairProcess repair(sim.simulator(), sim.network(),
                                  *sc.job.layout, *sc.job.code, failure, opts,
                                  util::Rng(10));
  sim.simulator().schedule_at(0.5, [&] {
    EXPECT_EQ(repair.stats().blocks_repaired, 0);
    failure.fail(source);
    repair.on_node_failed(source);
  });
  repair.start();
  sim.run();
  EXPECT_TRUE(repair.done());
  EXPECT_GT(repair.stats().replans, 0);
  EXPECT_EQ(repair.stats().blocks_requeued, 0);
  EXPECT_EQ(repair.stats().blocks_repaired, static_cast<int>(lost.size()));
  EXPECT_EQ(repair.stats().blocks_unrecoverable, 0);
}

TEST(Repair, SourceDeathBelowKSurvivorsIsUnrecoverable) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  // Two blocks of stripe 0 are gone: rebuilding one reads all k survivors,
  // so losing any of them mid-read leaves too few.
  const storage::BlockId block{0, 0};
  const NodeId holder = sc.job.layout->node_of(block);
  storage::FailureScenario failure(
      {holder, sc.job.layout->node_of(storage::BlockId{0, 1})});
  const FirstRebuild first = first_rebuild(sc, failure, block, 11);
  ASSERT_EQ(static_cast<int>(first.sources.size()), sc.job.code->k());
  const NodeId source = remote_source(sc, first);
  ASSERT_NE(source, -1);
  mapreduce::MapReduceSimulation sim(sc.cfg, {sc.job}, failure, lf, 47);
  mapreduce::RepairProcess::Options opts;
  opts.block_size = sc.cfg.block_size;
  mapreduce::RepairProcess repair(sim.simulator(), sim.network(),
                                  *sc.job.layout, *sc.job.code, failure, opts,
                                  util::Rng(11));
  bool completed = false;
  repair.on_complete = [&] { completed = true; };
  sim.simulator().schedule_at(0.5, [&] {
    failure.fail(source);
    repair.on_node_failed(source);
  });
  repair.start({block});
  sim.run();
  EXPECT_TRUE(repair.done());
  EXPECT_TRUE(completed);
  EXPECT_EQ(repair.stats().blocks_unrecoverable, 1);
  EXPECT_EQ(repair.stats().blocks_repaired, 0);
}

// --- trace export ---------------------------------------------------------------------

TEST(Trace, CsvRowCountsMatchRecords) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const storage::FailureScenario failure({1});
  const RunResult r = run_one(sc, failure, lf, 31);
  auto count_lines = [](const std::string& text) {
    return std::count(text.begin(), text.end(), '\n');
  };
  std::ostringstream maps, reduces, jobs;
  write_map_task_csv(maps, r);
  write_reduce_task_csv(reduces, r);
  write_job_csv(jobs, r);
  EXPECT_EQ(count_lines(maps.str()),
            static_cast<long>(r.map_tasks.size()) + 1);  // + header
  EXPECT_EQ(count_lines(reduces.str()),
            static_cast<long>(r.reduce_tasks.size()) + 1);
  EXPECT_EQ(count_lines(jobs.str()), static_cast<long>(r.jobs.size()) + 1);
  // Header names the key columns.
  EXPECT_NE(maps.str().find("degraded_sources"), std::string::npos);
  EXPECT_NE(jobs.str().find("remote_tasks"), std::string::npos);
}

TEST(Trace, JsonlEmitsEveryRecord) {
  SmallCluster sc;
  core::LocalityFirstScheduler lf;
  const RunResult r = run_one(sc, storage::no_failure(), lf, 32);
  std::ostringstream os;
  write_events_jsonl(os, r);
  const std::string text = os.str();
  auto occurrences = [&](const std::string& needle) {
    long n = 0;
    for (std::size_t pos = 0; (pos = text.find(needle, pos)) != std::string::npos;
         pos += needle.size()) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("\"type\":\"map\""),
            static_cast<long>(r.map_tasks.size()));
  EXPECT_EQ(occurrences("\"type\":\"reduce\""),
            static_cast<long>(r.reduce_tasks.size()));
  EXPECT_EQ(occurrences("\"type\":\"job\""), 1);
}

// --- replication baseline (k = 1 layouts) --------------------------------------------

struct ReplicatedCluster {
  ClusterConfig cfg;
  JobInput job;

  ReplicatedCluster() {
    cfg.topology = net::Topology(4, 5);
    cfg.links.rack_up = 1000.0;
    cfg.links.rack_down = 1000.0;
    cfg.map_slots_per_node = 2;
    cfg.block_size = 1000.0;
    cfg.heartbeat_interval = 1.0;
    util::Rng rng(9);
    job.spec.map_time = {5.0, 0.5};
    job.spec.num_reducers = 4;
    job.spec.reduce_time = {4.0, 0.4};
    job.spec.shuffle_ratio = 0.01;
    job.layout = std::make_shared<storage::StorageLayout>(
        storage::replicated_layout(120, 3, cfg.topology, rng));
    job.code = ec::make_replication(3);
  }
};

TEST(Replication, SingleFailureCreatesNoDegradedTasks) {
  ReplicatedCluster rc;
  core::LocalityFirstScheduler lf;
  const storage::FailureScenario failure({3});
  const RunResult r = simulate(rc.cfg, {rc.job}, failure, lf, 21);
  // Every block still has two live copies: reads are redirected, never
  // degraded (the contrast motivating the paper, SII-B).
  EXPECT_EQ(r.count_map_tasks(MapTaskKind::kDegraded), 0);
  EXPECT_EQ(r.map_tasks.size(), 120u);
  EXPECT_FALSE(r.data_loss);
}

TEST(Replication, TasksRunLocalToAnyReplica) {
  ReplicatedCluster rc;
  core::LocalityFirstScheduler lf;
  const RunResult r = simulate(rc.cfg, {rc.job}, storage::no_failure(), lf, 22);
  for (const auto& t : r.map_tasks) {
    if (t.kind != MapTaskKind::kNodeLocal) continue;
    // The executing node holds one of the three copies (not necessarily the
    // "native" first copy).
    bool holds_copy = false;
    for (int c = 0; c < 3; ++c) {
      if (rc.job.layout->node_of({t.block.stripe, c}) == t.exec_node) {
        holds_copy = true;
      }
    }
    EXPECT_TRUE(holds_copy);
  }
}

TEST(Replication, ReplicationBeatsErasureCodingInFailureMode) {
  // The trade-off the paper opens with: replication keeps failure-mode
  // MapReduce fast (at 200% storage overhead); erasure coding under
  // locality-first pays a big failure penalty.
  ReplicatedCluster rc;
  SmallCluster ec;  // (8,6) erasure-coded variant of the same cluster
  core::LocalityFirstScheduler lf;
  double rep_norm = 0, ec_norm = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const storage::FailureScenario failure({static_cast<NodeId>(seed * 3)});
    rep_norm += simulate(rc.cfg, {rc.job}, failure, lf, seed).jobs[0].runtime() /
                simulate(rc.cfg, {rc.job}, storage::no_failure(), lf, seed)
                    .jobs[0]
                    .runtime();
    ec_norm += simulate(ec.cfg, {ec.job}, failure, lf, seed).jobs[0].runtime() /
               simulate(ec.cfg, {ec.job}, storage::no_failure(), lf, seed)
                   .jobs[0]
                   .runtime();
  }
  EXPECT_LT(rep_norm, ec_norm);
}

TEST(Replication, TripleCopyLossIsDataLoss) {
  ReplicatedCluster rc;
  // Fail the three nodes holding every copy of block 0.
  std::vector<NodeId> failed;
  for (int c = 0; c < 3; ++c) {
    failed.push_back(rc.job.layout->node_of({0, c}));
  }
  auto edf = core::DegradedFirstScheduler::enhanced();
  const RunResult r =
      simulate(rc.cfg, {rc.job}, storage::FailureScenario(failed), edf, 23);
  EXPECT_TRUE(r.data_loss);
}

TEST(Replication, RackFailureStillNoDegradedTasks) {
  ReplicatedCluster rc;
  core::LocalityFirstScheduler lf;
  util::Rng frng(12);
  const auto failure = storage::rack_failure(rc.cfg.topology, frng);
  const RunResult r = simulate(rc.cfg, {rc.job}, failure, lf, 24);
  // HDFS placement tolerates a single-rack failure outright.
  EXPECT_EQ(r.count_map_tasks(MapTaskKind::kDegraded), 0);
  EXPECT_FALSE(r.data_loss);
}

}  // namespace
}  // namespace dfs::mapreduce
