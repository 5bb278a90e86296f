#include "dfs/workload/scenarios.h"

#include <memory>
#include <stdexcept>

#include "dfs/ec/reed_solomon.h"

namespace dfs::workload {

using mapreduce::ClusterConfig;
using mapreduce::JobInput;

ClusterConfig default_sim_cluster() {
  ClusterConfig cfg;
  cfg.topology = net::Topology(4, 10);
  cfg.links.rack_up = util::gigabits_per_sec(1.0);
  cfg.links.rack_down = util::gigabits_per_sec(1.0);
  // The paper's analysis and simulator contend only on the per-rack links;
  // node links stay uncontended.
  cfg.links.node_up = util::kUnlimitedBandwidth;
  cfg.links.node_down = util::kUnlimitedBandwidth;
  cfg.map_slots_per_node = 4;
  cfg.reduce_slots_per_node = 1;
  cfg.block_size = util::mebibytes(128);
  cfg.heartbeat_interval = 3.0;
  return cfg;
}

ClusterConfig heterogeneous_sim_cluster() {
  ClusterConfig cfg = default_sim_cluster();
  // Half the nodes are twice as slow (§V-C doubles their mean processing
  // times). Odd node ids, so slow nodes spread evenly over the racks.
  cfg.node_time_scale.assign(
      static_cast<std::size_t>(cfg.topology.num_nodes()), 1.0);
  for (net::NodeId n = 1; n < cfg.topology.num_nodes(); n += 2) {
    cfg.node_time_scale[static_cast<std::size_t>(n)] = 2.0;
  }
  return cfg;
}

ClusterConfig extreme_sim_cluster(int bad_nodes) {
  ClusterConfig cfg = default_sim_cluster();
  const int num_nodes = cfg.topology.num_nodes();
  if (bad_nodes < 0 || bad_nodes > num_nodes) {
    throw std::invalid_argument("bad_nodes out of range");
  }
  cfg.node_time_scale.assign(static_cast<std::size_t>(num_nodes), 1.0);
  // Bad nodes run map tasks 10x slower (3 s vs 30 s in the paper's setup);
  // spread them across the racks.
  for (int i = 0; i < bad_nodes; ++i) {
    const auto idx = static_cast<std::size_t>(i * num_nodes / bad_nodes);
    cfg.node_time_scale[idx] = 10.0;
  }
  return cfg;
}

ClusterConfig testbed_cluster() {
  ClusterConfig cfg;
  cfg.topology = net::Topology(3, 4);
  // The physical testbed has 1 Gbps switch ports, but the paper's Table I
  // implies a much lower *effective* per-stream read throughput: an LF
  // degraded map spends ~54 s fetching 10 x 64 MB (~95 Mbps/stream) through
  // the SATA-disk-backed HDFS DataNode path. We model every link at an
  // effective 250 Mbps, calibrated so the single-job EDF runtime cut and
  // the degraded-map runtimes land in the paper's range (see DESIGN.md).
  const auto effective = util::megabits_per_sec(250.0);
  cfg.links.node_up = effective;
  cfg.links.node_down = effective;
  cfg.links.rack_up = effective;
  cfg.links.rack_down = effective;
  cfg.map_slots_per_node = 4;
  cfg.reduce_slots_per_node = 1;
  cfg.block_size = util::mebibytes(64);
  cfg.heartbeat_interval = 3.0;
  return cfg;
}

JobInput make_sim_job(int id, const SimJobOptions& options,
                      const net::Topology& topology, util::Rng& rng) {
  JobInput job;
  job.spec.id = id;
  job.spec.map_time = options.map_time;
  job.spec.reduce_time = options.reduce_time;
  job.spec.num_reducers = options.num_reducers;
  job.spec.shuffle_ratio = options.shuffle_ratio;
  job.spec.submit_time = options.submit_time;
  // skew == 0 takes the paper's random placement path with the exact RNG
  // draw sequence it always had; the skewed layout is a separate generator.
  job.layout = std::make_shared<storage::StorageLayout>(
      options.skew > 0.0
          ? storage::zipf_rack_skewed_layout(options.num_blocks, options.n,
                                             options.k, topology, rng,
                                             options.skew)
          : storage::random_rack_constrained_layout(
                options.num_blocks, options.n, options.k, topology, rng));
  job.code = ec::make_reed_solomon(options.n, options.k);
  return job;
}

std::vector<JobInput> make_multi_job_workload(int count,
                                              util::Seconds mean_interarrival,
                                              const SimJobOptions& options,
                                              const net::Topology& topology,
                                              util::Rng& rng) {
  std::vector<JobInput> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  util::Seconds at = 0.0;
  for (int i = 0; i < count; ++i) {
    SimJobOptions opts = options;
    opts.submit_time = at;
    jobs.push_back(make_sim_job(i, opts, topology, rng));
    at += rng.exponential(mean_interarrival);
  }
  return jobs;
}

MotivatingExample motivating_example() {
  MotivatingExample ex;
  ex.cluster.topology = net::Topology(std::vector<int>{3, 2});
  // 100 Mbps everywhere; one "128 MB" block (125e6 bytes nominal) moves
  // node-to-node in exactly 10 s, matching the paper's round numbers.
  const auto mbps100 = util::megabits_per_sec(100);
  ex.cluster.links.node_up = mbps100;
  ex.cluster.links.node_down = mbps100;
  ex.cluster.links.rack_up = mbps100;
  ex.cluster.links.rack_down = mbps100;
  ex.cluster.block_size = 125e6;
  ex.cluster.map_slots_per_node = 2;
  ex.cluster.reduce_slots_per_node = 1;
  // Fine-grained heartbeats keep the replay close to the paper's idealized
  // lock-step schedule.
  ex.cluster.heartbeat_interval = 0.5;

  ex.job.spec.id = 0;
  ex.job.spec.map_time = {10.0, 0.0};
  ex.job.spec.num_reducers = 0;  // the example follows the map phase only
  ex.job.spec.shuffle_ratio = 0.0;

  // Fig. 2's placement. Nodes 0-2 are rack A (paper's Nodes 1-3), nodes 3-4
  // are rack B (Nodes 4-5). Stripe blocks are [B_i0, B_i1, P_i0, P_i1].
  // Node 0 holds the natives B00..B30 that become lost blocks; each degraded
  // reader then holds its stripe's other native locally and fetches one
  // parity block, exactly reproducing the narrative:
  //   Node2/Node3 fetch P00/P10 from rack B (they compete on rack A's
  //   downlink), Node4 fetches P20 from Node3 cross-rack, Node5 fetches P30
  //   from Node4 within rack B.
  std::vector<std::vector<net::NodeId>> placement = {
      {0, 1, 4, 3},  // stripe 0: B00@N1, B01@N2, P00@N5, P01@N4
      {0, 2, 4, 3},  // stripe 1: B10@N1, B11@N3, P10@N5, P11@N4
      {0, 3, 2, 4},  // stripe 2: B20@N1, B21@N4, P20@N3, P21@N5
      {0, 4, 3, 1},  // stripe 3: B30@N1, B31@N5, P30@N4, P31@N2
      {1, 3, 2, 4},  // stripe 4
      {2, 4, 1, 3},  // stripe 5
  };
  ex.job.layout = std::make_shared<storage::StorageLayout>(
      storage::StorageLayout(4, 2, std::move(placement)));
  ex.job.code = ec::make_reed_solomon(4, 2);
  ex.failure = storage::FailureScenario({0});
  return ex;
}

const char* to_string(TestbedJobKind kind) {
  switch (kind) {
    case TestbedJobKind::kWordCount:
      return "WordCount";
    case TestbedJobKind::kGrep:
      return "Grep";
    case TestbedJobKind::kLineCount:
      return "LineCount";
  }
  return "?";
}

JobInput make_testbed_job(int id, TestbedJobKind kind,
                          util::Seconds submit_time) {
  JobInput job;
  job.spec.id = id;
  job.spec.num_reducers = 8;
  job.spec.submit_time = submit_time;
  // Calibrated from Table I's normal-map runtimes on 64 MB blocks; the
  // shuffle ratios order the jobs as §VI describes (LineCount shuffles more
  // than Grep; WordCount in between).
  switch (kind) {
    case TestbedJobKind::kWordCount:
      job.spec.map_time = {31.0, 2.0};
      job.spec.reduce_time = {30.0, 3.0};
      job.spec.shuffle_ratio = 0.05;
      break;
    case TestbedJobKind::kGrep:
      job.spec.map_time = {12.0, 1.0};
      job.spec.reduce_time = {15.0, 2.0};
      job.spec.shuffle_ratio = 0.01;
      break;
    case TestbedJobKind::kLineCount:
      job.spec.map_time = {36.0, 2.0};
      job.spec.reduce_time = {35.0, 3.0};
      job.spec.shuffle_ratio = 0.10;
      break;
  }
  // 15 GB of text = 240 blocks of 64 MB, (12,10) Reed-Solomon, placed
  // round-robin over the 12 slaves: 20 native blocks per slave (§VI).
  job.layout = std::make_shared<storage::StorageLayout>(
      storage::round_robin_layout(240, 12, 10, 12));
  job.code = ec::make_reed_solomon(12, 10);
  return job;
}

SimJobOptions extreme_case_job_options() {
  SimJobOptions opts;
  opts.num_blocks = 150;
  opts.map_time = {3.0, 0.2};
  opts.num_reducers = 0;  // map-only (§V-C)
  opts.shuffle_ratio = 0.0;
  return opts;
}

}  // namespace dfs::workload
