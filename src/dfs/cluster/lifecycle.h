#pragma once

#include <memory>
#include <vector>

#include "dfs/ec/erasure_code.h"
#include "dfs/mapreduce/master.h"
#include "dfs/mapreduce/repair.h"
#include "dfs/net/network.h"
#include "dfs/sim/simulator.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"
#include "dfs/util/rng.h"

namespace dfs::cluster {

struct LifecycleOptions {
  /// Per-node exponential mean time to failure, in hours of simulated time.
  /// Deliberately accelerated relative to real hardware (months) so a
  /// multi-hour run exercises several failure/repair cycles; scale up for
  /// realistic rates.
  double node_mttf_hours = 6.0;
  /// Mean of the exponential delay between a failure and the start of its
  /// reconstruction (detection + disk replacement). Reconstruction time
  /// itself is endogenous: real repair traffic through the shared network.
  util::Seconds mean_repair_delay = 60.0;
  /// Probability that a failure event takes the node's whole rack (ToR
  /// switch loss) instead of just the node.
  double rack_failure_fraction = 0.0;
  /// Cap on simultaneously failed nodes for node-level events; a failure
  /// clock that fires at the cap is redrawn instead of fired (keeps the
  /// default scenario inside the code's tolerance so runs measure latency,
  /// not data loss). Rack events ignore the cap and instead fire only into
  /// an otherwise healthy cluster.
  int max_concurrent_failed = 4;
  /// Simultaneous block reconstructions per failure event.
  int repair_concurrency = 4;
  /// Size of each rebuilt block.
  util::Bytes block_size = util::mebibytes(128);
  /// No new failures are injected after the horizon; repairs already
  /// running still complete.
  util::Seconds horizon = 2.0 * 3600.0;
  /// Fault layer: a failure also kills the node's TaskTracker (the master
  /// detects it by heartbeat expiry and reschedules its attempts). Requires
  /// ClusterConfig::fault to match. It gates only that compute death: the
  /// storage death reaches the master's reads and every in-flight repair
  /// either way.
  bool compute_failures = false;
};

/// One node- or rack-failure event and its repair outcome.
struct FailureEvent {
  util::Seconds fail_time = -1.0;
  util::Seconds repair_start = -1.0;
  util::Seconds restore_time = -1.0;  ///< -1 while the repair is in flight
  std::vector<net::NodeId> nodes;
  bool rack = false;
  int blocks_repaired = 0;
  int blocks_unrecoverable = 0;
};

/// Drives the cluster through failure/repair cycles while jobs run: each
/// alive node carries an exponential MTTF clock; when one fires, the node
/// (or, with rack_failure_fraction, its rack) drops out of the shared
/// FailureScenario, the master reclassifies the affected pending tasks as
/// degraded, and after an MTTR delay a RepairProcess rebuilds the node's
/// share of the cluster's archival data over the shared network. When the
/// last block lands the node rejoins, full locality is restored, and its
/// MTTF clock is redrawn.
class LifecycleDriver {
 public:
  LifecycleDriver(sim::Simulator& simulator, net::Network& network,
                  mapreduce::Master& master,
                  storage::FailureScenario& failure,
                  const storage::StorageLayout& archive_layout,
                  const ec::ErasureCode& archive_code,
                  LifecycleOptions options, util::Rng rng);

  /// Arms every node's failure clock and the horizon stop. Call before
  /// Simulator::run().
  void start();

  /// Blocks queued or being rebuilt right now, across all active repairs.
  int repair_backlog() const;
  /// Failure events whose nodes have not been restored yet.
  int active_failures() const;
  /// Nodes currently down across all active events.
  int failed_node_count() const;
  bool idle() const { return active_failures() == 0; }

  int failures_injected() const { return static_cast<int>(events_.size()); }
  /// Repair counters summed over every event so far (finish_time unset).
  mapreduce::RepairProcess::Stats repair_totals() const;
  /// All events, in injection order; restore_time == -1 for unfinished ones.
  std::vector<FailureEvent> events() const;

 private:
  struct ActiveEvent {
    FailureEvent event;
    std::unique_ptr<mapreduce::RepairProcess> repair;
  };

  void arm_failure_clock(net::NodeId node);
  void on_failure_clock(net::NodeId node);
  void trigger_failure(std::vector<net::NodeId> nodes, bool rack);
  void on_repair_complete(std::size_t event_index);
  void stop_at_horizon();

  sim::Simulator& sim_;
  net::Network& net_;
  mapreduce::Master& master_;
  storage::FailureScenario& failure_;
  const storage::StorageLayout& archive_layout_;
  const ec::ErasureCode& archive_code_;
  LifecycleOptions options_;
  util::Rng rng_;

  std::vector<sim::EventId> clocks_;  ///< pending failure clock per node
  std::vector<std::unique_ptr<ActiveEvent>> events_;
  int active_failures_ = 0;
  bool stopped_ = false;  ///< horizon passed: no new failures
};

}  // namespace dfs::cluster
