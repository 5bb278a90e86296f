#pragma once

#include "dfs/mapreduce/master_state.h"

namespace dfs::mapreduce {

class MapPhase;
class ShufflePhase;

/// Fault-tolerance phase engine: compute-death detection (Hadoop-style
/// heartbeat expiry), reaping of dead nodes (kill doomed attempts, requeue
/// their tasks, re-execute lost map outputs), transient attempt failures
/// with exponential-backoff retries, slave blacklisting, job abort after
/// max_attempts, and killing input fetches sourced from a storage node that
/// dies.
///
/// Teardown never cancels scheduled callbacks directly; detection and
/// unblacklist timers capture the slave's incarnation ticket (util::Epoch)
/// and neutralize themselves once the node has been repaired.
class FaultSupervisor {
 public:
  explicit FaultSupervisor(MasterState& state) : s_(state) {}

  /// Post-construction wiring: reaping reverses map launches and tears down
  /// reduce attempts through the owning engines.
  void wire(MapPhase& map, ShufflePhase& shuffle) {
    map_ = &map;
    shuffle_ = &shuffle;
  }

  /// The node's TaskTracker died: doom its attempts, cancel their transfers,
  /// and arm the heartbeat-expiry detection timer.
  void on_compute_failed(NodeId node);
  /// Repair-side counterpart: reap whatever the expiry window had not yet
  /// detected, void stale timers (incarnation bump), and restore the
  /// slave's compute-side state to a fresh TaskTracker.
  void restore_compute(NodeId node);

  /// Heartbeat expiry fired: the master now knows `node` is dead.
  void declare_slave_dead(NodeId node);
  /// Kill doomed attempts on `node`, requeue their tasks, re-execute
  /// completed maps whose outputs died with the node.
  void reap_dead_node(NodeId node);

  /// Return a task to the correct pending pools (degraded vs per-node),
  /// keeping total_md and the rack indexes exact.
  void requeue_map_task(JobState& j, int map_idx);
  /// A completed map's output died with its node: undo the completion so the
  /// task runs again (or promote a still-running backup attempt to primary).
  void revert_completed_map(JobState& j, int map_idx, int record_idx);
  /// Record index of a live non-finalized attempt of (job, map_idx), or -1.
  int find_running_attempt(core::JobId job_id, int map_idx) const;

  void on_map_attempt_failed(core::JobId job_id, int record_idx, int map_idx);
  void on_reduce_attempt_failed(core::JobId job_id, int reduce_idx,
                                util::Epoch::Ticket epoch);

  /// Abort the job after a task exhausted max_attempts: kill every live
  /// attempt, mark the job failed, keep the FIFO queue moving.
  void abort_job(JobState& j);
  /// Count an attempt failure on `node` toward its blacklist threshold.
  void note_attempt_failure(NodeId node);
  /// Kill the rack-local / remote attempts whose input fetch reads from the
  /// newly-failed `node` and requeue their tasks.
  void kill_fetches_from(NodeId node);

 private:
  MasterState& s_;
  MapPhase* map_ = nullptr;
  ShufflePhase* shuffle_ = nullptr;
};

}  // namespace dfs::mapreduce
