#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "dfs/workload/scenarios.h"
#include "dfs/workload/text.h"

namespace dfs::workload {
namespace {

TEST(Scenarios, DefaultSimClusterMatchesPaper) {
  const auto cfg = default_sim_cluster();
  EXPECT_EQ(cfg.topology.num_nodes(), 40);
  EXPECT_EQ(cfg.topology.num_racks(), 4);
  EXPECT_EQ(cfg.map_slots_per_node, 4);
  EXPECT_EQ(cfg.reduce_slots_per_node, 1);
  EXPECT_DOUBLE_EQ(cfg.block_size, util::mebibytes(128));
  EXPECT_DOUBLE_EQ(cfg.links.rack_down, util::gigabits_per_sec(1));
  EXPECT_DOUBLE_EQ(cfg.heartbeat_interval, 3.0);
  EXPECT_TRUE(cfg.node_time_scale.empty());
}

TEST(Scenarios, HeterogeneousHalfSlower) {
  const auto cfg = heterogeneous_sim_cluster();
  int slow = 0;
  for (net::NodeId n = 0; n < cfg.topology.num_nodes(); ++n) {
    if (cfg.time_scale(n) == 2.0) ++slow;
  }
  EXPECT_EQ(slow, 20);
}

TEST(Scenarios, ExtremeClusterBadNodes) {
  const auto cfg = extreme_sim_cluster(5);
  int bad = 0;
  std::set<net::RackId> racks;
  for (net::NodeId n = 0; n < cfg.topology.num_nodes(); ++n) {
    if (cfg.time_scale(n) == 10.0) {
      ++bad;
      racks.insert(cfg.topology.rack_of(n));
    }
  }
  EXPECT_EQ(bad, 5);
  EXPECT_GT(racks.size(), 1u);  // spread, not all in one rack
}

TEST(Scenarios, TestbedClusterMatchesPaper) {
  const auto cfg = testbed_cluster();
  EXPECT_EQ(cfg.topology.num_nodes(), 12);
  EXPECT_EQ(cfg.topology.num_racks(), 3);
  EXPECT_DOUBLE_EQ(cfg.block_size, util::mebibytes(64));
  // Effective per-stream throughput (calibrated, see testbed_cluster()),
  // modeled on every link including the node access links.
  EXPECT_DOUBLE_EQ(cfg.links.node_down, util::megabits_per_sec(250));
  EXPECT_DOUBLE_EQ(cfg.links.rack_down, cfg.links.node_down);
}

TEST(Scenarios, SimJobDefaultsMatchPaper) {
  util::Rng rng(1);
  const auto cfg = default_sim_cluster();
  const auto job = make_sim_job(0, SimJobOptions{}, cfg.topology, rng);
  EXPECT_EQ(job.layout->num_native_blocks(), 1440);
  EXPECT_EQ(job.layout->n(), 20);
  EXPECT_EQ(job.layout->k(), 15);
  EXPECT_EQ(job.spec.num_reducers, 30);
  EXPECT_DOUBLE_EQ(job.spec.shuffle_ratio, 0.01);
  EXPECT_DOUBLE_EQ(job.spec.map_time.mean, 20.0);
  EXPECT_DOUBLE_EQ(job.spec.reduce_time.mean, 30.0);
  EXPECT_TRUE(job.layout->satisfies_placement_rule(cfg.topology, 5));
  EXPECT_EQ(job.code->n(), 20);
}

TEST(Scenarios, MultiJobArrivalsIncreasing) {
  util::Rng rng(2);
  const auto cfg = default_sim_cluster();
  SimJobOptions opts;
  opts.num_blocks = 120;  // keep the test fast
  const auto jobs = make_multi_job_workload(10, 120.0, opts, cfg.topology, rng);
  ASSERT_EQ(jobs.size(), 10u);
  EXPECT_DOUBLE_EQ(jobs[0].spec.submit_time, 0.0);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GT(jobs[i].spec.submit_time, jobs[i - 1].spec.submit_time);
    EXPECT_EQ(jobs[i].spec.id, static_cast<int>(i));
  }
}

TEST(Scenarios, TestbedJobsCalibration) {
  const auto wc = make_testbed_job(0, TestbedJobKind::kWordCount);
  const auto gr = make_testbed_job(1, TestbedJobKind::kGrep);
  const auto lc = make_testbed_job(2, TestbedJobKind::kLineCount);
  // 240 blocks, 20 native per slave, (12,10).
  EXPECT_EQ(wc.layout->num_native_blocks(), 240);
  EXPECT_EQ(wc.layout->n(), 12);
  EXPECT_EQ(wc.layout->k(), 10);
  EXPECT_EQ(wc.spec.num_reducers, 8);
  // Table I ordering: Grep's maps are fastest, LineCount's slowest.
  EXPECT_LT(gr.spec.map_time.mean, wc.spec.map_time.mean);
  EXPECT_LT(wc.spec.map_time.mean, lc.spec.map_time.mean);
  // §VI: LineCount shuffles more than Grep.
  EXPECT_GT(lc.spec.shuffle_ratio, gr.spec.shuffle_ratio);
}

TEST(Scenarios, ExtremeJobIsMapOnly) {
  util::Rng rng(3);
  const auto cfg = extreme_sim_cluster();
  const auto job =
      make_sim_job(0, extreme_case_job_options(), cfg.topology, rng);
  EXPECT_EQ(job.spec.num_reducers, 0);
  EXPECT_EQ(job.layout->num_native_blocks(), 150);
  EXPECT_DOUBLE_EQ(job.spec.map_time.mean, 3.0);
}

TEST(Text, GeneratesRequestedVolume) {
  util::Rng rng(4);
  const std::string text = generate_text(rng, 10000);
  EXPECT_GE(text.size(), 10000u);
  EXPECT_LT(text.size(), 10200u);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Text, ZipfSkewTowardCommonWords) {
  util::Rng rng(5);
  const std::string text = generate_text(rng, 50000);
  // Count occurrences of the rank-1 word vs a deep-rank word.
  auto count_word = [&](const std::string& w) {
    int count = 0;
    std::size_t pos = 0;
    const std::string needle = w + " ";
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      ++count;
      pos += needle.size();
    }
    return count;
  };
  EXPECT_GT(count_word(vocabulary_word(0)), count_word(vocabulary_word(150)));
}

// Pins generate_text's bytes and the Rng position it leaves: FNV-1a of the
// text, its size, and the next raw engine draw. Recorded from the
// std::lower_bound Zipf draw and the push_back text builder.
TEST(Text, OutputAndStreamArePinned) {
  struct Pin {
    std::uint64_t seed;
    std::size_t approx_bytes;
    std::size_t size;
    std::uint64_t fnv1a;
    std::uint64_t next_draw;
  };
  const Pin pins[] = {
      {1, 1 << 20, 1048593, 0xa49d68c20ba2c7d3ULL, 0x88c672dbc16e799eULL},
      {1, 10007, 10048, 0x1c66dda7914dff8eULL, 0x5054f267bf58729dULL},
      {4242, 1 << 20, 1048605, 0xfd29d64960d37544ULL, 0xd95561a9f13d5680ULL},
      {4242, 10007, 10021, 0x2c01b1f78f0240fcULL, 0xae43c0516c82b17bULL},
      // Nothing requested: no bytes and no draws.
      {1, 0, 0, 0xcbf29ce484222325ULL, 0x2245bd5fbb686f68ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "seed " << pin.seed << ", "
                                    << pin.approx_bytes << " bytes");
    util::Rng rng(pin.seed);
    const std::string text = generate_text(rng, pin.approx_bytes);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
      hash = (hash ^ c) * 0x100000001b3ULL;
    }
    EXPECT_EQ(text.size(), pin.size);
    EXPECT_EQ(hash, pin.fnv1a);
    EXPECT_EQ(rng.engine()(), pin.next_draw);
  }
}

TEST(Text, DeterministicPerSeed) {
  util::Rng a(6);
  util::Rng b(6);
  EXPECT_EQ(generate_text(a, 5000), generate_text(b, 5000));
}

}  // namespace
}  // namespace dfs::workload
