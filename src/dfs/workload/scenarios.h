#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dfs/mapreduce/config.h"
#include "dfs/storage/failure.h"
#include "dfs/util/rng.h"

namespace dfs::workload {

// ---------------------------------------------------------------------------
// Cluster builders
// ---------------------------------------------------------------------------

/// §V-B default simulation cluster: 40 nodes in 4 racks, 1 Gbps rack
/// download bandwidth, 128 MB blocks, 4 map slots + 1 reduce slot per node.
mapreduce::ClusterConfig default_sim_cluster();

/// §V-C heterogeneous cluster: same as default, but half the nodes are twice
/// as slow (the paper doubles their mean map/reduce processing times).
mapreduce::ClusterConfig heterogeneous_sim_cluster();

/// §V-C extreme cluster: same as default, but `bad_nodes` nodes process map
/// tasks 10x slower (3 s vs 30 s in the paper). Returns the config; the bad
/// nodes are nodes [0, bad_nodes).
mapreduce::ClusterConfig extreme_sim_cluster(int bad_nodes = 5);

/// §VI testbed: 12 slaves in 3 racks of 4, all links 1 Gbps (node links are
/// modeled too, as on the real switches), 64 MB blocks, 4 map + 1 reduce
/// slots per slave.
mapreduce::ClusterConfig testbed_cluster();

// ---------------------------------------------------------------------------
// Job builders (simulation experiments, §V)
// ---------------------------------------------------------------------------

/// Knobs of the §V-B default job that the Fig. 7 sweeps vary.
struct SimJobOptions {
  int num_blocks = 1440;
  int n = 20;
  int k = 15;
  mapreduce::Dist map_time{20.0, 1.0};
  mapreduce::Dist reduce_time{30.0, 2.0};
  int num_reducers = 30;
  double shuffle_ratio = 0.01;
  util::Seconds submit_time = 0.0;
  /// Zipf exponent for skewed block placement: 0 (the default) keeps the
  /// paper's parity-declustered random placement; > 0 routes blocks through
  /// storage::zipf_rack_skewed_layout so popularity — and the degraded-read
  /// traffic after a failure — concentrates on hot (low-numbered) racks.
  double skew = 0.0;
};

/// Build one job over a fresh randomly-placed erasure-coded file (§III
/// placement rule, parity declustering).
mapreduce::JobInput make_sim_job(int id, const SimJobOptions& options,
                                 const net::Topology& topology,
                                 util::Rng& rng);

/// §V-B multi-job workload: `count` copies of the default job with
/// exponential(mean_interarrival) inter-arrival times, FIFO-scheduled.
std::vector<mapreduce::JobInput> make_multi_job_workload(
    int count, util::Seconds mean_interarrival, const SimJobOptions& options,
    const net::Topology& topology, util::Rng& rng);

// ---------------------------------------------------------------------------
// Motivating example (§III, Figs. 2-3)
// ---------------------------------------------------------------------------

/// The paper's hand-built five-node scenario: racks of 3 + 2 nodes joined by
/// 100 Mbps links, a 12-native-block file under a (4,2) code placed exactly
/// as the Fig. 2 narrative requires (node 0 holds B00,B10,B20,B30; each
/// survivor can read one source locally and one cross-rack), 2 map slots per
/// node, 10 s per block transfer and 10 s per map task. Node 0 fails.
///
/// Under locality-first the map phase lasts ~40 s; degraded-first brings it
/// to ~30 s (Fig. 3's 25% saving).
struct MotivatingExample {
  mapreduce::ClusterConfig cluster;
  mapreduce::JobInput job;
  storage::FailureScenario failure;
};

MotivatingExample motivating_example();

// ---------------------------------------------------------------------------
// Testbed experiment jobs (§VI)
// ---------------------------------------------------------------------------

/// The three I/O-heavy text jobs the testbed runs. Processing times and
/// shuffle volumes are calibrated from Table I's measured per-task runtimes
/// (normal map tasks: WordCount ~31 s, Grep ~12 s, LineCount ~36 s on 64 MB
/// blocks; LineCount shuffles more than Grep).
enum class TestbedJobKind { kWordCount, kGrep, kLineCount };

const char* to_string(TestbedJobKind kind);

/// Job spec for one testbed job: 240 native blocks under a (12,10) code
/// placed round-robin over the 12 slaves (each slave holds 20 native
/// blocks), 8 reducers.
mapreduce::JobInput make_testbed_job(int id, TestbedJobKind kind,
                                     util::Seconds submit_time = 0.0);

/// Options of the Fig. 8(d) extreme-case job (§V-C): map-only (no
/// reducers), 150 blocks, 3 s mean map time (bad nodes run 10x slower via
/// the cluster config). Build it with make_sim_job.
SimJobOptions extreme_case_job_options();

}  // namespace dfs::workload
