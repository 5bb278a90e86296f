#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dfs/net/network.h"
#include "dfs/net/topology.h"
#include "dfs/net/utilization.h"
#include "dfs/sim/simulator.h"
#include "dfs/util/rng.h"

namespace dfs::net {
namespace {

// --- topology ----------------------------------------------------------------

TEST(Topology, UniformRacks) {
  const Topology t(4, 10);
  EXPECT_EQ(t.num_nodes(), 40);
  EXPECT_EQ(t.num_racks(), 4);
  EXPECT_EQ(t.rack_of(0), 0);
  EXPECT_EQ(t.rack_of(9), 0);
  EXPECT_EQ(t.rack_of(10), 1);
  EXPECT_EQ(t.rack_of(39), 3);
  EXPECT_TRUE(t.same_rack(11, 19));
  EXPECT_FALSE(t.same_rack(9, 10));
}

TEST(Topology, UnevenRacks) {
  // The motivating example's cluster: rack 0 has 3 nodes, rack 1 has 2.
  const Topology t(std::vector<int>{3, 2});
  EXPECT_EQ(t.num_nodes(), 5);
  EXPECT_EQ(t.num_racks(), 2);
  EXPECT_EQ(t.rack_of(2), 0);
  EXPECT_EQ(t.rack_of(3), 1);
  EXPECT_EQ(t.nodes_in_rack(1), (std::vector<NodeId>{3, 4}));
}

// --- network helpers -----------------------------------------------------------

struct Fixture {
  sim::Simulator sim;
  Topology topo{2, 2};  // nodes 0,1 in rack 0; nodes 2,3 in rack 1
  LinkConfig links;

  Fixture() {
    links.node_up = util::kUnlimitedBandwidth;
    links.node_down = util::kUnlimitedBandwidth;
    links.rack_up = 100.0;    // bytes/sec — small numbers for easy math
    links.rack_down = 100.0;
  }
};

TEST(Network, IsolatedTransferTimeCrossRack) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  EXPECT_DOUBLE_EQ(net.isolated_transfer_time(0, 2, 1000.0), 10.0);
}

TEST(Network, IsolatedTransferTimeIntraRackUncontended) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  // Node links unlimited: intra-rack transfers cost no simulated time.
  EXPECT_DOUBLE_EQ(net.isolated_transfer_time(0, 1, 1000.0), 0.0);
}

TEST(Network, IsolatedTimeUsesBottleneck) {
  Fixture f;
  f.links.node_down = 50.0;  // slower than the rack links
  Network net(f.sim, f.topo, f.links);
  EXPECT_DOUBLE_EQ(net.isolated_transfer_time(0, 2, 1000.0), 20.0);
}

TEST(Network, SingleTransferCompletesAtIsolatedTime) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  double done = -1.0;
  net.transfer(0, 2, 1000.0, [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_DOUBLE_EQ(done, 10.0);
  EXPECT_EQ(net.stats().flows_completed, 1u);
  EXPECT_DOUBLE_EQ(net.stats().bytes_delivered, 1000.0);
}

TEST(Network, FairShareTwoFlowsSameRackDownlinkDouble) {
  // The paper's motivating contention: two degraded reads into one rack
  // double the download time (10 s -> 20 s).
  Fixture f;
  Network net(f.sim, f.topo, f.links, ContentionModel::kMaxMinFairShare);
  std::vector<double> done;
  net.transfer(0, 2, 1000.0, [&] { done.push_back(f.sim.now()); });
  net.transfer(1, 3, 1000.0, [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 20.0, 1e-6);
  EXPECT_NEAR(done[1], 20.0, 1e-6);
}

TEST(Network, ExclusiveFifoSerializes) {
  Fixture f;
  Network net(f.sim, f.topo, f.links, ContentionModel::kExclusiveFifo);
  std::vector<double> done;
  net.transfer(0, 2, 1000.0, [&] { done.push_back(f.sim.now()); });
  net.transfer(1, 3, 1000.0, [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 20.0, 1e-6);
}

TEST(Network, FairShareLateArrival) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  double done_a = -1, done_b = -1;
  net.transfer(0, 2, 1000.0, [&] { done_a = f.sim.now(); });
  f.sim.schedule_in(5.0, [&] {
    net.transfer(1, 3, 1000.0, [&] { done_b = f.sim.now(); });
  });
  f.sim.run();
  // A alone 0-5 (500 B done), shared 5-15 (remaining 500 at 50 B/s),
  // then B alone 15-20.
  EXPECT_NEAR(done_a, 15.0, 1e-6);
  EXPECT_NEAR(done_b, 20.0, 1e-6);
}

TEST(Network, OppositeDirectionsDoNotContend) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  std::vector<double> done;
  net.transfer(0, 2, 1000.0, [&] { done.push_back(f.sim.now()); });
  net.transfer(2, 0, 1000.0, [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST(Network, SameNodeTransferInstant) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  double done = -1;
  net.transfer(1, 1, 12345.0, [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
  EXPECT_DOUBLE_EQ(net.stats().bytes_delivered, 12345.0);
}

TEST(Network, ZeroByteTransferCompletes) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  bool done = false;
  net.transfer(0, 2, 0.0, [&] { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(Network, CompletionCallbackCanStartNewFlow) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  double second_done = -1;
  net.transfer(0, 2, 1000.0, [&] {
    net.transfer(0, 2, 1000.0, [&] { second_done = f.sim.now(); });
  });
  f.sim.run();
  EXPECT_NEAR(second_done, 20.0, 1e-6);
}

TEST(Network, NodeLinkContentionAtDestination) {
  // k source blocks converging on one reader saturate its node downlink.
  Fixture f;
  f.links.node_down = 100.0;
  Network net(f.sim, f.topo, f.links);
  int finished = 0;
  double last = 0.0;
  // Two intra-rack transfers into node 1: share node 1's downlink.
  net.transfer(0, 1, 1000.0, [&] { ++finished; last = f.sim.now(); });
  f.sim.schedule_in(0.0, [&] {
    net.transfer(0, 1, 1000.0, [&] { ++finished; last = f.sim.now(); });
  });
  f.sim.run();
  EXPECT_EQ(finished, 2);
  EXPECT_NEAR(last, 20.0, 1e-6);
}

TEST(Network, ManyFlowsConservation) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    net.transfer(i % 2, 2 + (i % 2), 100.0, [&] { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, 50);
  EXPECT_DOUBLE_EQ(net.stats().bytes_delivered, 5000.0);
  // 5000 bytes through a 100 B/s rack downlink: exactly 50 s busy.
  EXPECT_NEAR(net.rack_down_busy_time(1), 50.0, 1e-6);
}

TEST(Network, FifoSkipsBlockedAndRunsDisjoint) {
  Fixture f;
  Network net(f.sim, f.topo, f.links, ContentionModel::kExclusiveFifo);
  std::vector<int> order;
  net.transfer(0, 2, 1000.0, [&] { order.push_back(0); });  // rack0->rack1
  net.transfer(1, 3, 1000.0, [&] { order.push_back(1); });  // blocked (same links)
  net.transfer(2, 0, 1000.0, [&] { order.push_back(2); });  // reverse: disjoint
  f.sim.run();
  ASSERT_EQ(order.size(), 3u);
  // Flow 2 uses the opposite-direction links and runs concurrently with 0.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
}

TEST(Network, FairShareRatesRespectEveryLink) {
  // Three flows into rack 1: two from rack 0 (share rack0 uplink AND rack1
  // downlink) plus one intra-rack... with node links enabled.
  Fixture f;
  f.links.node_up = 100.0;
  f.links.node_down = 100.0;
  Network net(f.sim, f.topo, f.links);
  std::vector<double> done(3, -1);
  net.transfer(0, 2, 1000.0, [&] { done[0] = f.sim.now(); });
  net.transfer(1, 2, 1000.0, [&] { done[1] = f.sim.now(); });
  net.transfer(3, 2, 1000.0, [&] { done[2] = f.sim.now(); });
  f.sim.run();
  // Node 2's downlink (100 B/s) carries all 3000 bytes: last finishes at 30.
  const double latest = std::max({done[0], done[1], done[2]});
  EXPECT_NEAR(latest, 30.0, 1e-6);
}

// --- utilization sampler --------------------------------------------------------------

TEST(Utilization, MeasuresBusyFraction) {
  sim::Simulator sim;
  const Topology topo(2, 2);
  LinkConfig links;
  links.rack_up = 100.0;
  links.rack_down = 100.0;
  Network net(sim, topo, links);
  // One 1000-byte flow into rack 1: its downlink is busy for 10 s.
  net.transfer(0, 2, 1000.0, [] {});
  bool keep = true;
  UtilizationSampler sampler(sim, net, 5.0, [&keep] { return keep; });
  sampler.start();
  sim.schedule_at(40.0, [&keep] { keep = false; });
  sim.run();
  ASSERT_GE(sampler.samples().size(), 8u);
  // First two intervals: rack 1's downlink busy -> mean over 2 racks = 0.5.
  EXPECT_NEAR(sampler.samples()[0].utilization, 0.5, 1e-9);
  EXPECT_NEAR(sampler.samples()[1].utilization, 0.5, 1e-9);
  // After t=10 the network is idle.
  EXPECT_NEAR(sampler.samples()[3].utilization, 0.0, 1e-9);
  EXPECT_NEAR(sampler.mean_utilization(0.0, 10.0), 0.5, 1e-9);
  EXPECT_NEAR(sampler.mean_utilization(10.0, 40.0), 0.0, 1e-9);
}

TEST(Utilization, StopsWhenPredicateFalse) {
  sim::Simulator sim;
  const Topology topo(2, 2);
  Network net(sim, topo, LinkConfig{});
  int allowed = 3;
  UtilizationSampler sampler(sim, net, 1.0, [&allowed] { return --allowed > 0; });
  sampler.start();
  sim.run();
  EXPECT_EQ(sampler.samples().size(), 3u);
}

// --- property sweep over both contention models -------------------------------------

class ContentionParamTest
    : public ::testing::TestWithParam<ContentionModel> {};

TEST_P(ContentionParamTest, RandomFlowsConserveBytesAndRespectPhysics) {
  sim::Simulator sim;
  const Topology topo(3, 4);
  LinkConfig links;
  links.node_up = 500.0;
  links.node_down = 500.0;
  links.rack_up = 1000.0;
  links.rack_down = 1000.0;
  Network net(sim, topo, links, GetParam());

  struct Probe {
    double start = 0, end = -1, size = 0;
    NodeId src = 0, dst = 0;
  };
  std::vector<Probe> probes(200);
  util::Rng rng(77);
  double total = 0;
  for (auto& p : probes) {
    p.src = rng.uniform_int(0, 11);
    p.dst = rng.uniform_int(0, 11);
    p.size = rng.uniform(100.0, 5000.0);
    p.start = rng.uniform(0.0, 50.0);
    total += p.size;
    sim.schedule_at(p.start, [&net, &sim, &p] {
      net.transfer(p.src, p.dst, p.size, [&sim, &p] { p.end = sim.now(); });
    });
  }
  sim.run();

  EXPECT_EQ(net.stats().flows_completed, 200u);
  EXPECT_NEAR(net.stats().bytes_delivered, total, 1e-6);
  for (const auto& p : probes) {
    ASSERT_GE(p.end, 0.0) << "flow never completed";
    // No flow can beat the uncontended bottleneck transfer time.
    const double isolated = net.isolated_transfer_time(p.src, p.dst, p.size);
    EXPECT_GE(p.end - p.start, isolated - 1e-6);
  }
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST_P(ContentionParamTest, SequentialEqualsIsolated) {
  // Back-to-back transfers on an otherwise idle network complete at the sum
  // of their isolated times under either discipline.
  sim::Simulator sim;
  const Topology topo(2, 2);
  LinkConfig links;
  links.rack_up = 100.0;
  links.rack_down = 100.0;
  Network net(sim, topo, links, GetParam());
  double done = -1;
  net.transfer(0, 2, 500.0, [&] {
    net.transfer(0, 2, 500.0, [&] { done = sim.now(); });
  });
  sim.run();
  EXPECT_NEAR(done, 10.0, 1e-6);
}

// --- fair-share fast paths vs full water-filling ----------------------------

TEST(Network, FairShareFastPathsMatchFullRecomputeUnderChurn) {
  // Randomized flow churn with the debug cross-check on: every fast-path
  // allocation decision (isolated-flow add, idle-links removal) is re-derived
  // by a full water-filling pass inside the Network, which throws
  // std::logic_error if the rates diverge. The workload mixes contended and
  // isolated flows plus mid-flight cancellations so both fast paths and the
  // full pass are exercised.
  sim::Simulator sim;
  const Topology topo(4, 10);
  LinkConfig links;
  links.rack_up = util::megabits_per_sec(800.0);
  links.rack_down = util::megabits_per_sec(800.0);
  links.node_up = util::megabits_per_sec(400.0);
  links.node_down = util::megabits_per_sec(400.0);
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);

  util::Rng rng(12345);
  int done = 0;
  std::vector<FlowId> started;
  for (int i = 0; i < 160; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 39));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, 39));
    const double size = rng.uniform(1e5, 5e6);
    const double at = rng.uniform(0.0, 40.0);
    sim.schedule_in(at, [&net, &done, &started, src, dst, size] {
      started.push_back(net.transfer(src, dst, size, [&done] { ++done; }));
    });
    if (i % 5 == 0) {
      // Cancel some random earlier flow mid-flight (whichever is still
      // active by then; cancel() returning false is fine).
      sim.schedule_in(at + rng.uniform(0.1, 5.0), [&net, &started, i] {
        if (!started.empty()) {
          net.cancel(started[static_cast<std::size_t>(i) % started.size()]);
        }
      });
    }
  }
  sim.run();

  EXPECT_EQ(net.active_flow_count(), 0);
  EXPECT_EQ(static_cast<std::uint64_t>(done) + net.stats().flows_cancelled,
            net.stats().flows_started);
  // The whole point of the cross-check run: both strategies actually ran.
  EXPECT_GT(net.stats().fast_paths, 0u);
  EXPECT_GT(net.stats().full_recomputes, 0u);
}

// --- batched / aggregated fair-share engine vs the naive per-flow pass -------

TEST(Network, FairShareCancelHeavyChurnMatchesNaive) {
  // Cancel-heavy randomized churn with the cross-check on: after every
  // batched recompute the Network re-derives all rates with the naive
  // per-flow water-filling pass and throws std::logic_error on divergence.
  // Roughly half the flows are cancelled mid-flight, so class membership
  // counts shrink through every path (completion and cancellation) and
  // classes are torn down while their component is still contended.
  sim::Simulator sim;
  const Topology topo(3, 4);
  LinkConfig links;
  links.rack_up = util::megabits_per_sec(400.0);
  links.rack_down = util::megabits_per_sec(400.0);
  links.node_up = util::megabits_per_sec(200.0);
  links.node_down = util::megabits_per_sec(200.0);
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);

  util::Rng rng(987654);
  int done = 0;
  std::vector<FlowId> started;
  for (int i = 0; i < 120; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, 11));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, 11));
    const double size = rng.uniform(1e5, 8e6);
    const double at = rng.uniform(0.0, 30.0);
    sim.schedule_in(at, [&net, &done, &started, src, dst, size] {
      started.push_back(net.transfer(src, dst, size, [&done] { ++done; }));
    });
    // Every other flow triggers a cancellation attempt against whatever flow
    // started most recently — short delays so the target is usually still
    // mid-flight; cancel() returning false for finished flows is fine.
    if (i % 2 == 0) {
      sim.schedule_in(at + rng.uniform(0.01, 0.3), [&net, &started] {
        if (!started.empty()) net.cancel(started.back());
      });
    }
  }
  sim.run();

  EXPECT_EQ(net.active_flow_count(), 0);
  EXPECT_GT(net.stats().flows_cancelled, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(done) + net.stats().flows_cancelled,
            net.stats().flows_started);
  // Both engines ran: the naive reference pass (full recomputes) verified
  // every batched decision, and multi-class components were water-filled.
  EXPECT_GT(net.stats().full_recomputes, 0u);
  EXPECT_GT(net.stats().component_recomputes, 0u);
  EXPECT_EQ(net.stats().classes_active, 0);
}

TEST(Network, BurstWavesMatchFrozenPerFlowEngine) {
  // perf_regression's network workload, op for op: per wave a 16-source
  // degraded-read fan-in, an 8x8 shuffle burst 0.4 s later, and a
  // cancellation of every third fan-in flow at a random instant. Paper
  // links (1 Gb/s rack links, node/core unlimited), so many flows share
  // identical contended paths and collapse into classes. The cross-check
  // re-derives every batched decision with the naive per-flow pass, and the
  // pinned values are those of the frozen pre-aggregation engine (a full
  // per-flow water-filling pass on every op) on this workload: the
  // aggregated engine reproduces its completion times bit for bit.
  sim::Simulator sim;
  const Topology topo(4, 10);
  const LinkConfig links;
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);
  util::Rng rng(24601);
  double checksum = 0.0;  // order-insensitive: sum of completion time * tag
  std::uint64_t completed = 0;
  std::uint64_t ops = 0;  // transfers started + cancellations attempted
  long tag = 0;
  std::vector<std::vector<FlowId>> fan_ids(120);
  for (int w = 0; w < 120; ++w) {
    const double t = w * 1.0;
    const auto fan_dst = static_cast<NodeId>(rng.uniform_int(0, 39));
    for (int i = 0; i < 16; ++i) {
      const auto src = static_cast<NodeId>(rng.uniform_int(0, 39));
      const double size = rng.uniform(2e7, 6e7);
      const long mytag = ++tag;
      sim.schedule_at(t, [&, w, src, fan_dst, size, mytag] {
        ++ops;
        fan_ids[static_cast<std::size_t>(w)].push_back(
            net.transfer(src, fan_dst, size, [&, mytag] {
              checksum += sim.now() * static_cast<double>(mytag);
              ++completed;
            }));
      });
    }
    for (int m = 0; m < 8; ++m) {
      const auto ms = static_cast<NodeId>(rng.uniform_int(0, 39));
      for (int r = 0; r < 8; ++r) {
        const auto rd = static_cast<NodeId>(rng.uniform_int(0, 39));
        const double size = rng.uniform(2e6, 6e6);
        const long mytag = ++tag;
        sim.schedule_at(t + 0.4, [&, ms, rd, size, mytag] {
          ++ops;
          net.transfer(ms, rd, size, [&, mytag] {
            checksum += sim.now() * static_cast<double>(mytag);
            ++completed;
          });
        });
      }
    }
    sim.schedule_at(t + rng.uniform(0.2, 0.9), [&, w] {
      const auto& ids = fan_ids[static_cast<std::size_t>(w)];
      for (std::size_t i = 0; i < ids.size(); i += 3) {
        ++ops;
        net.cancel(ids[i]);
      }
    });
  }
  sim.run();

  EXPECT_EQ(checksum, 0x1.b628178b850e4p+31);
  EXPECT_EQ(completed, 9074u);
  EXPECT_EQ(ops, 10320u);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(Network, ShuffleFanOutWavesMatchPerFlowEngine) {
  // The shuffle's shape: a finished map starts one partition flow per
  // reducer, all of one size at one instant from one source. 30 reducers
  // sit on 4 racks of 10 under paper links (rack links contend, node links
  // do not), so in-rack partitions are uncontended and cross-rack ones
  // share one class per destination rack. Per wave six maps finish; the
  // first two at the same instant with the same size, so same-rack sources
  // share a class and a residual too. One reducer dies per wave and its
  // in-flight partitions are cancelled. The cross-check re-derives every
  // batched decision per flow. The pinned values are those of the engine
  // that kept one live entry and one delivery event per flow; the order
  // hash pins the delivery sequence, not just the completion times.
  sim::Simulator sim;
  const Topology topo(4, 10);
  const LinkConfig links;
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);
  util::Rng rng(8128);
  constexpr int kReducers = 30;
  std::vector<NodeId> reducers;
  for (int r = 0; r < kReducers; ++r) {
    reducers.push_back(static_cast<NodeId>(rng.uniform_int(0, 39)));
  }
  std::vector<std::vector<FlowId>> to_reducer(kReducers);
  double checksum = 0.0;  // sum of completion time * tag
  std::uint64_t order = 1469598103934665603ull;  // FNV-1a over delivered tags
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  long tag = 0;
  for (int w = 0; w < 40; ++w) {
    const double t = w * 0.5;
    double size = 0.0;
    for (int m = 0; m < 6; ++m) {
      const auto src = static_cast<NodeId>(rng.uniform_int(0, 39));
      if (m != 1) size = rng.uniform(1e6, 4e6);
      const double at = m < 2 ? t : t + rng.uniform(0.0, 0.5);
      const long first = tag + 1;
      tag += kReducers;
      sim.schedule_at(at, [&, src, size, first] {
        for (int r = 0; r < kReducers; ++r) {
          const long mytag = first + r;
          to_reducer[static_cast<std::size_t>(r)].push_back(net.transfer(
              src, reducers[static_cast<std::size_t>(r)], size, [&, mytag] {
                checksum += sim.now() * static_cast<double>(mytag);
                order = (order ^ static_cast<std::uint64_t>(mytag)) *
                        1099511628211ull;
                ++completed;
              }));
        }
      });
    }
    const auto dead = static_cast<std::size_t>(rng.uniform_int(0, 29));
    sim.schedule_at(t + rng.uniform(0.0, 0.5), [&, dead] {
      for (const FlowId id : to_reducer[dead]) {
        if (net.cancel(id)) ++cancelled;
      }
      to_reducer[dead].clear();
    });
  }
  sim.run();

  EXPECT_EQ(checksum, 0x1.4e28d1d987769p+28);
  EXPECT_EQ(order, 9592777369719396129u);
  EXPECT_EQ(completed, 5660u);
  EXPECT_EQ(cancelled, 1540u);
  EXPECT_EQ(completed + cancelled, 40u * 6u * kReducers);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(Network, FairShareSameTimestampBurstsCoalesce) {
  // A k-fan-out burst started inside one event — the shape of a degraded
  // read fetching k blocks at once — must coalesce into a single zero-delay
  // recompute, and identical contended paths must collapse into one class.
  sim::Simulator sim;
  const Topology topo(2, 8);  // nodes 0-7 rack 0, 8-15 rack 1
  LinkConfig links;           // node links unlimited: only rack links contend
  links.rack_up = 100.0;
  links.rack_down = 100.0;
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);

  int done = 0;
  sim.schedule_in(0.0, [&] {
    for (NodeId i = 0; i < 8; ++i) {
      net.transfer(i, static_cast<NodeId>(8 + i), 1000.0,
                   [&done] { ++done; });
    }
    // Runs at the same timestamp but after the coalesced recompute (FIFO
    // tie-break): all eight adds were folded into one batch, and the eight
    // identical paths [rack0 up, rack1 down] form a single class, so the
    // component pass took the single-class fast path.
    sim.schedule_in(0.0, [&net] {
      EXPECT_EQ(net.stats().batched_recomputes, 1u);
      EXPECT_EQ(net.stats().classes_active, 1);
      EXPECT_EQ(net.stats().fast_paths, 1u);
      EXPECT_EQ(net.stats().component_recomputes, 0u);
    });
  });
  sim.run();

  // 8 equal flows share the 100 B/s rack links: 12.5 B/s each, done at 80 s.
  EXPECT_EQ(done, 8);
  EXPECT_NEAR(sim.now(), 80.0, 1e-6);
  const Network::Stats s = net.stats();
  EXPECT_EQ(s.flows_started, 8u);
  EXPECT_EQ(s.flows_completed, 8u);
  // The simultaneous completion of all eight flows was itself one batch.
  EXPECT_EQ(s.batched_recomputes, 2u);
  EXPECT_EQ(s.classes_active, 0);
  EXPECT_DOUBLE_EQ(s.bytes_delivered, 8000.0);
}

TEST(Network, FairShareSingleFlowComponentsUseFastPath) {
  // Flows on disjoint link sets form single-class components; each add and
  // removal must resolve through the O(links) fast path without ever
  // water-filling a multi-class component.
  sim::Simulator sim;
  const Topology topo(3, 2);  // nodes 0,1 / 2,3 / 4,5
  LinkConfig links;
  links.rack_up = 100.0;
  links.rack_down = 100.0;
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);

  int done = 0;
  // Pairwise disjoint rings: rack0->rack1, rack1->rack2, rack2->rack0 use
  // six distinct directed links. Staggered starts so every add is its own
  // batch.
  net.transfer(0, 2, 1000.0, [&done] { ++done; });
  sim.schedule_in(1.0, [&] { net.transfer(2, 4, 1000.0, [&done] { ++done; }); });
  sim.schedule_in(2.0, [&] { net.transfer(4, 0, 1000.0, [&done] { ++done; }); });
  sim.run();

  EXPECT_EQ(done, 3);
  // Each flow ran uncontended at 100 B/s for its full 1000 bytes.
  EXPECT_NEAR(sim.now(), 12.0, 1e-6);
  EXPECT_EQ(net.stats().component_recomputes, 0u);
  EXPECT_GE(net.stats().fast_paths, 3u);
  EXPECT_EQ(net.stats().classes_active, 0);
}

TEST(Network, CompletionBatchIsDeliveredInStartOrder) {
  // Six equal flows on two rack pairs with interleaved starts: flows 0, 2, 4
  // go rack 0 -> rack 1 and flows 1, 3, 5 go rack 1 -> rack 0. Each pair
  // shares its two rack links three ways, so all six finish together in one
  // completion batch, which must be delivered in start order — the same
  // order the kernel's FIFO tie-break gives same-time events.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  net.set_fair_share_cross_check(true);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    const NodeId src = i % 2 == 0 ? 0 : 2;
    const NodeId dst = i % 2 == 0 ? 3 : 1;
    net.transfer(src, dst, 1000.0, [&order, &f, i] {
      EXPECT_NEAR(f.sim.now(), 30.0, 1e-6);
      order.push_back(i);
    });
  }
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  // Each rack pair's three flows shared one live group, so the batch came
  // from two groups and their members were interleaved by start order.
  EXPECT_EQ(net.stats().live_groups_started, 2u);
}

// --- live groups and shared uncontended deliveries --------------------------

TEST(Network, GroupJoinNeedsSameClassAndResidual) {
  // A flow joins its class's newest live group only if the group's residual
  // equals the flow's size: same class, same size, same instant.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  net.set_fair_share_cross_check(true);
  std::vector<double> done(5, -1.0);
  const auto at = [&done, &f](int i) {
    return [&done, &f, i] { done[static_cast<std::size_t>(i)] = f.sim.now(); };
  };
  net.transfer(0, 2, 1000.0, at(0));
  net.transfer(1, 3, 1000.0, at(1));  // same class and size: joins
  EXPECT_EQ(net.stats().live_groups_started, 1u);
  net.transfer(0, 3, 600.0, at(2));  // same class, other size: refused
  EXPECT_EQ(net.stats().live_groups_started, 2u);
  net.transfer(2, 0, 1000.0, at(3));  // other class (rack 1 -> 0): refused
  EXPECT_EQ(net.stats().live_groups_started, 3u);
  EXPECT_EQ(net.active_flow_count(), 4);  // flows, not groups
  f.sim.schedule_in(1.0, [&] {
    // Same class and size as flow 3, but 1 s later its residual is 900.
    net.transfer(3, 1, 1000.0, at(4));
    EXPECT_EQ(net.stats().live_groups_started, 4u);
  });
  f.sim.run();
  // Rack 0 -> 1 is shared three ways at 100/3 B/s: the 600-byte flow ends
  // at 18 s, the other two then take 50 B/s for their last 400 bytes.
  EXPECT_NEAR(done[2], 18.0, 1e-6);
  EXPECT_NEAR(done[0], 26.0, 1e-6);
  EXPECT_EQ(done[0], done[1]);
  // Rack 1 -> 0: flow 3 alone for 1 s, then two ways at 50 B/s.
  EXPECT_NEAR(done[3], 19.0, 1e-6);
  EXPECT_NEAR(done[4], 20.0, 1e-6);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(Network, CancelGroupHeadMiddleAndTail) {
  // Four flows in one live group (newest first: 3, 2, 1, 0). Cancelling the
  // head, a middle member and the tail leaves flow 2 alone; each handle is
  // refused once cancelled, and the survivor finishes when its residual
  // says so.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  net.set_fair_share_cross_check(true);
  std::vector<FlowId> ids;
  int fired = 0;
  double survivor_done = -1.0;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net.transfer(0, 2, 1000.0, [&, i] {
      ++fired;
      if (i == 2) survivor_done = f.sim.now();
    }));
  }
  EXPECT_EQ(net.stats().live_groups_started, 1u);
  const auto cancel_at = [&](double t, int i, int left) {
    f.sim.schedule_at(t, [&, i, left] {
      EXPECT_TRUE(net.cancel(ids[static_cast<std::size_t>(i)]));
      EXPECT_FALSE(net.cancel(ids[static_cast<std::size_t>(i)]));
      EXPECT_EQ(net.active_flow_count(), left);
    });
  };
  cancel_at(2.0, 3, 3);  // head
  cancel_at(4.0, 1, 2);  // middle
  cancel_at(6.0, 0, 1);  // tail
  f.sim.run();
  // 25 B/s for 2 s, 100/3 B/s for 2 s, 50 B/s for 2 s, then 100 B/s.
  const double left = 1000.0 - 50.0 - 200.0 / 3.0 - 100.0;
  EXPECT_NEAR(survivor_done, 6.0 + left / 100.0, 1e-6);
  EXPECT_EQ(fired, 1);
  for (const FlowId id : ids) EXPECT_FALSE(net.cancel(id));
  const Network::Stats s = net.stats();
  EXPECT_EQ(s.flows_cancelled, 3u);
  EXPECT_EQ(s.flows_completed, 1u);
  EXPECT_EQ(s.live_groups_started, 1u);
}

TEST(Network, GroupedLoserCancelledInItsBatchCountsCancelled) {
  // A hedged read's winner and loser in one live group finish in one batch;
  // the winner's callback cancels the loser before its delivery, so the
  // loser is suppressed and counts as cancelled, not completed.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  net.set_fair_share_cross_check(true);
  FlowId loser = 0;
  bool loser_fired = false;
  bool cancelled = false;
  net.transfer(0, 2, 1000.0, [&] {
    cancelled = net.cancel(loser);
    EXPECT_FALSE(net.cancel(loser));
  });
  loser = net.transfer(1, 3, 1000.0, [&] { loser_fired = true; });
  EXPECT_EQ(net.stats().live_groups_started, 1u);
  f.sim.run();
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(loser_fired);
  EXPECT_FALSE(net.cancel(loser));
  const Network::Stats s = net.stats();
  EXPECT_EQ(s.flows_completed, 1u);
  EXPECT_EQ(s.flows_cancelled, 1u);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(Network, SharedUncontendedDeliveryKeepsEventOrder) {
  // Uncontended transfers share one zero-delay delivery event only while it
  // is the last event scheduled. X, scheduled between A and B, still runs
  // between them; C joins B's event, and so does D, which A's callback
  // starts while B's event is still the newest one queued.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  std::string order;
  net.transfer(1, 1, 10.0, [&] {
    order += 'A';
    net.transfer(0, 1, 10.0, [&] { order += 'D'; });
  });
  f.sim.schedule_now([&] { order += 'X'; });
  net.transfer(0, 1, 10.0, [&] { order += 'B'; });  // in-rack: uncontended
  net.transfer(0, 2, 0.0, [&] { order += 'C'; });   // zero bytes
  f.sim.run();
  EXPECT_EQ(order, "AXBCD");
  EXPECT_EQ(net.stats().delivery_events, 2u);
  EXPECT_EQ(net.stats().flows_completed, 4u);
  EXPECT_EQ(f.sim.events_executed(), 3u);
}

TEST(Network, UncontendedTransferAfterClearGetsItsOwnEvent) {
  // Simulator::clear() drops the open delivery event without running it; a
  // later uncontended transfer must not join the dropped event.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  bool dropped = false;
  bool done = false;
  net.transfer(1, 1, 10.0, [&] { dropped = true; });
  f.sim.clear();
  net.transfer(1, 1, 10.0, [&] { done = true; });
  f.sim.run();
  EXPECT_FALSE(dropped);
  EXPECT_TRUE(done);
  EXPECT_EQ(net.stats().delivery_events, 2u);
}

TEST(Network, ShuffleFanOutWorkCounters) {
  // Two maps in rack 0 finish at one instant and each sends one 4 MB
  // partition to each of 30 reducers spread over 4 racks (paper links).
  // Their cross-rack partitions form one live group per destination rack,
  // and their in-rack partitions share two delivery events: one before the
  // first cross-rack flow schedules the recompute, one after. A third map
  // in rack 2 fans out later with another size: three more groups, and its
  // first partition is cross-rack, so one more delivery event. The counters
  // are functions of the workload alone, so they are pinned exactly.
  sim::Simulator sim;
  const Topology topo(4, 10);
  const LinkConfig links;
  Network net(sim, topo, links);
  net.set_fair_share_cross_check(true);
  std::vector<NodeId> reducers;
  for (int i = 0; i < 30; ++i) {
    reducers.push_back(static_cast<NodeId>((7 * i + 3) % 40));
  }
  int done = 0;
  const auto fan_out = [&](NodeId src, double size) {
    for (const NodeId r : reducers) net.transfer(src, r, size, [&] { ++done; });
  };
  fan_out(0, 4e6);
  fan_out(5, 4e6);
  sim.schedule_in(0.01, [&] { fan_out(25, 3e6); });
  sim.run();

  EXPECT_EQ(done, 90);
  const Network::Stats s = net.stats();
  EXPECT_EQ(s.flows_started, 90u);
  EXPECT_EQ(s.live_groups_started, 6u);
  EXPECT_EQ(s.delivery_events, 3u);
  EXPECT_EQ(s.waterfill_subtractions, 132u);
  EXPECT_EQ(s.batched_recomputes, 4u);
  EXPECT_EQ(s.component_recomputes, 3u);
  EXPECT_EQ(s.fast_paths, 0u);
  EXPECT_EQ(sim.events_executed(), 10u);
}

// --- cancel: idempotence and same-batch races --------------------------------

TEST(Network, CancelIsIdempotentAcrossLifecycle) {
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  bool done = false;
  const FlowId id = net.transfer(0, 2, 1000.0, [&] { done = true; });
  // Mid-flight: first cancel wins, the second is a no-op.
  f.sim.schedule_in(5.0, [&] {
    EXPECT_TRUE(net.cancel(id));
    EXPECT_FALSE(net.cancel(id));
  });
  f.sim.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(net.stats().flows_cancelled, 1u);

  // After completion: cancel must refuse (the flow already delivered).
  bool done2 = false;
  const FlowId id2 = net.transfer(0, 2, 1000.0, [&] { done2 = true; });
  f.sim.run();
  EXPECT_TRUE(done2);
  EXPECT_FALSE(net.cancel(id2));
  EXPECT_FALSE(net.cancel(id2));
  EXPECT_EQ(net.stats().flows_cancelled, 1u);
}

TEST(Network, CancelFromSameBatchCompletionSuppressesDelivery) {
  // Two contended flows on identical paths finish in the same fair-share
  // completion batch, and each one's completion callback cancels the other —
  // the exact shape of cancel-on-quorum, where the winning fetch's callback
  // reconstructs the block and cancels the losers. Whichever flow the batch
  // dispatches first must win: its cancel suppresses the other's queued
  // delivery (and a repeat cancel is a no-op), and the victim's callback
  // never fires. The test is agnostic to the batch's internal order.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  net.set_fair_share_cross_check(true);
  FlowId a = 0, b = 0;
  int fired = 0;
  bool a_suppressed_b = false, b_suppressed_a = false;
  double batch_at = -1.0;
  a = net.transfer(0, 2, 1000.0, [&] {
    ++fired;
    batch_at = f.sim.now();
    a_suppressed_b = net.cancel(b);
    EXPECT_FALSE(net.cancel(b));  // idempotent on the suppressed victim
  });
  b = net.transfer(1, 3, 1000.0, [&] {
    ++fired;
    batch_at = f.sim.now();
    b_suppressed_a = net.cancel(a);
    EXPECT_FALSE(net.cancel(a));
  });
  f.sim.run();
  // Both shared rack0-up/rack1-down at 50 B/s each: the batch fires at 20 s.
  EXPECT_NEAR(batch_at, 20.0, 1e-6);
  EXPECT_EQ(fired, 1);
  EXPECT_NE(a_suppressed_b, b_suppressed_a);  // exactly one cancel landed
  EXPECT_EQ(net.stats().flows_completed, 1u);
  EXPECT_EQ(net.stats().flows_cancelled, 1u);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(Network, CancelAfterDeliveryFromLaterBatchReturnsFalse) {
  // The cancel target completed in an earlier batch: cancel() must report
  // failure instead of double-counting the flow as cancelled.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  net.set_fair_share_cross_check(true);
  FlowId early = 0;
  bool early_done = false;
  bool late_saw_cancel = true;
  early = net.transfer(0, 2, 500.0, [&] { early_done = true; });  // 5 s
  // Opposite direction: disjoint links, finishes alone at 10 s.
  net.transfer(2, 0, 1000.0, [&] { late_saw_cancel = net.cancel(early); });
  f.sim.run();
  EXPECT_TRUE(early_done);
  EXPECT_FALSE(late_saw_cancel);
  EXPECT_EQ(net.stats().flows_completed, 2u);
  EXPECT_EQ(net.stats().flows_cancelled, 0u);
}

// --- handles: stale and uncontended flows -------------------------------------

TEST(Network, StaleHandleOfRecycledFlowCannotCancelItsSuccessor) {
  // A completed flow frees its slab slot and the next transfer takes it
  // over. The old handle names the same slot with an older generation, so
  // cancel() must refuse it and leave the new occupant running.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  net.set_fair_share_cross_check(true);
  const FlowId old_id = net.transfer(0, 2, 1000.0, [] {});
  f.sim.run();
  bool done = false;
  const FlowId new_id = net.transfer(0, 2, 1000.0, [&] { done = true; });
  ASSERT_NE(new_id, 0u);
  ASSERT_NE(new_id, old_id);
  ASSERT_EQ(new_id >> 32, old_id >> 32);  // the slot really was reused
  EXPECT_FALSE(net.cancel(old_id));
  EXPECT_FALSE(net.cancel(0));                      // "no flow"
  EXPECT_FALSE(net.cancel(FlowId{7} << 32 | 1));  // slot never allocated
  EXPECT_EQ(net.active_flow_count(), 1);
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(f.sim.now(), 20.0, 1e-6);
  EXPECT_EQ(net.stats().flows_completed, 2u);
  EXPECT_EQ(net.stats().flows_cancelled, 0u);
  EXPECT_FALSE(net.cancel(new_id));
}

TEST(Network, CancelOfUncontendedFlowRefusesAndItStillCompletes) {
  // Same-node and zero-byte transfers take no link share and complete on
  // the next dispatch whatever happens; cancel() reports them as not
  // cancellable instead of dropping the callback.
  Fixture f;
  Network net(f.sim, f.topo, f.links);
  int done = 0;
  const FlowId local = net.transfer(1, 1, 12345.0, [&] { ++done; });
  const FlowId empty = net.transfer(0, 2, 0.0, [&] { ++done; });
  EXPECT_NE(local, 0u);
  EXPECT_NE(empty, 0u);
  EXPECT_FALSE(net.cancel(local));
  EXPECT_FALSE(net.cancel(empty));
  f.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(net.stats().flows_completed, 2u);
  EXPECT_EQ(net.stats().flows_cancelled, 0u);
  EXPECT_FALSE(net.cancel(local));
}

INSTANTIATE_TEST_SUITE_P(BothModels, ContentionParamTest,
                         ::testing::Values(ContentionModel::kMaxMinFairShare,
                                           ContentionModel::kExclusiveFifo),
                         [](const auto& info) {
                           return info.param ==
                                          ContentionModel::kMaxMinFairShare
                                      ? "FairShare"
                                      : "ExclusiveFifo";
                         });

}  // namespace
}  // namespace dfs::net
