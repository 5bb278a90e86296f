#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/attempt_slab.h"
#include "dfs/mapreduce/config.h"
#include "dfs/mapreduce/fetch_supervisor.h"
#include "dfs/mapreduce/metrics.h"
#include "dfs/mapreduce/pending_pools.h"
#include "dfs/net/network.h"
#include "dfs/sim/simulator.h"
#include "dfs/storage/degraded.h"
#include "dfs/storage/failure.h"
#include "dfs/util/epoch.h"
#include "dfs/util/rng.h"
#include "dfs/util/stale_queue.h"

namespace dfs::mapreduce {

/// Optional callbacks fired at simulated task boundaries; the functional
/// engine (dfs::engine) uses them to run real map/reduce work — including
/// real erasure-decode for degraded tasks — at the times the simulator says
/// those tasks execute.
struct TaskHooks {
  std::function<void(const MapTaskRecord&)> on_map_finish;
  std::function<void(const ReduceTaskRecord&)> on_reduce_finish;
  std::function<void(const JobMetrics&)> on_job_finish;
};

/// "Never assigned a degraded task": makes t_r effectively infinite so fresh
/// racks always pass the rack-awareness check.
inline constexpr util::Seconds kNeverAssigned = -1.0e9;

struct MapTaskState {
  storage::BlockId block{};
  NodeId home = -1;  ///< node storing the native block (may be failed)
  bool lost = false;
  bool assigned = false;
  bool done = false;        ///< some attempt has completed
  bool has_backup = false;  ///< a speculative copy was launched
  int record = -1;  ///< index into result.map_tasks of the first attempt
  int attempts = 0;  ///< attempts launched (fault layer; backups excluded)
  int failures = 0;  ///< transient attempt failures so far
  /// Kind the current non-backup attempt launched as; all pacing-counter
  /// (m/m_d) unlaunch accounting uses this, so a task whose classification
  /// drifts while running (e.g. its copy fails mid-attempt) still reverses
  /// exactly what its launch added.
  MapTaskKind launched_kind = MapTaskKind::kNodeLocal;
  /// Blocks the current non-backup attempt's degraded read fetches (sum of
  /// its plan's fractions; the job's expected volume when the plan failed),
  /// 0.0 for non-degraded launches. unlaunch_map reverses exactly this.
  double launched_cost = 0.0;
  /// Surviving nodes a readable copy of the input can be fetched from.
  /// One entry (the native home) for k > 1 codes; every surviving shard
  /// holder for k == 1 (replication) layouts, where any copy serves.
  std::vector<NodeId> locations;
  std::vector<RackId> location_racks;  ///< distinct racks of `locations`
};

/// One in-flight shuffle fetch of a reduce attempt (fault layer): enough
/// to cancel it when either endpoint dies and to retry it later.
struct InflightFetch {
  net::FlowId flow = 0;
  int map_idx = -1;
  NodeId src = -1;
};

struct ReduceTaskState {
  bool assigned = false;
  NodeId node = -1;
  int partitions_fetched = 0;
  bool processing = false;
  int record = -1;
  int attempts = 0;  ///< attempts launched (fault layer)
  int failures = 0;  ///< transient attempt failures so far
  /// Bumped whenever the current attempt is torn down; scheduled events
  /// carry the ticket they were armed under and no-op on a mismatch.
  util::Epoch epoch;
  /// The attempt's node compute-failed but the master has not yet noticed;
  /// new work (fetch starts, processing) is suppressed until reaped.
  bool doomed = false;
  /// Per-map-task fetched flags (sized total_m when the attempt starts);
  /// partitions_fetched counts the set entries.
  std::vector<char> fetched;

  /// In-flight fetches, queue-ordered, with an O(1) per-map index. At most
  /// one live fetch exists per map task, so removal-by-map used to be a
  /// linear scan + erase — quadratic over an attempt that has all of a
  /// large job's partitions in flight. Removal now tombstones the entry in
  /// place (flow 0) and compacts amortized-O(1), preserving queue order so
  /// the teardown paths cancel flows in exactly the order the scan-and-
  /// erase version did.
  void inflight_add(const InflightFetch& f) {
    assert(f.flow != 0);
    if (static_cast<std::size_t>(f.map_idx) >= inflight_pos_.size()) {
      inflight_pos_.resize(static_cast<std::size_t>(f.map_idx) + 1, -1);
    }
    assert(inflight_pos_[static_cast<std::size_t>(f.map_idx)] < 0);
    inflight_pos_[static_cast<std::size_t>(f.map_idx)] =
        static_cast<int>(inflight_.size());
    inflight_.push_back(f);
    ++inflight_live_;
  }

  /// Drop `map_idx`'s fetch if one is in flight (no cancellation).
  void inflight_remove(int map_idx) {
    if (static_cast<std::size_t>(map_idx) >= inflight_pos_.size()) return;
    const int pos = inflight_pos_[static_cast<std::size_t>(map_idx)];
    if (pos < 0) return;
    inflight_[static_cast<std::size_t>(pos)].flow = 0;  // tombstone
    inflight_pos_[static_cast<std::size_t>(map_idx)] = -1;
    --inflight_live_;
    if (inflight_live_ == 0) {
      inflight_.clear();
    } else if (inflight_.size() >= 16 &&
               static_cast<std::size_t>(inflight_live_) * 2 <=
                   inflight_.size()) {
      compact_inflight();
    }
  }

  /// Visit the live fetches in queue order. The body must not add or
  /// remove entries; use the removal/clear primitives afterwards.
  template <typename Fn>
  void inflight_for_each(Fn&& fn) const {
    for (const InflightFetch& f : inflight_) {
      if (f.flow != 0) fn(f);
    }
  }

  /// Remove the live fetches `pred` selects, in queue order, invoking
  /// `on_removed` (e.g. a network cancel) for each. Single pass.
  template <typename Pred, typename Fn>
  void inflight_remove_if(Pred&& pred, Fn&& on_removed) {
    for (InflightFetch& f : inflight_) {
      if (f.flow == 0 || !pred(f)) continue;
      on_removed(f);
      inflight_pos_[static_cast<std::size_t>(f.map_idx)] = -1;
      f.flow = 0;
      --inflight_live_;
    }
    if (inflight_live_ == 0) inflight_.clear();
  }

  /// Drop every fetch (no cancellation — teardown paths cancel first via
  /// inflight_for_each).
  void inflight_clear() {
    for (const InflightFetch& f : inflight_) {
      if (f.flow != 0) inflight_pos_[static_cast<std::size_t>(f.map_idx)] = -1;
    }
    inflight_.clear();
    inflight_live_ = 0;
  }

  int inflight_count() const { return inflight_live_; }

 private:
  void compact_inflight() {
    std::size_t out = 0;
    for (const InflightFetch& f : inflight_) {
      if (f.flow == 0) continue;
      inflight_pos_[static_cast<std::size_t>(f.map_idx)] =
          static_cast<int>(out);
      inflight_[out++] = f;
    }
    inflight_.resize(out);
  }

  std::vector<InflightFetch> inflight_;  ///< queue order; flow==0 = dead
  std::vector<int> inflight_pos_;        ///< map_idx -> inflight_ index
  int inflight_live_ = 0;
};

struct JobState {
  JobSpec spec;
  std::shared_ptr<const storage::StorageLayout> layout;
  std::shared_ptr<const ec::ErasureCode> code;
  std::unique_ptr<storage::DegradedReadPlanner> planner;
  util::Rng rng;  ///< per-job stream for task-duration draws
  bool active = false;
  bool finished = false;

  std::vector<MapTaskState> maps;
  /// Pending non-degraded map-task indices: per node (a task appears in the
  /// queue of every node holding a readable copy), per rack, and the
  /// per-rack longest-queue cache behind remote selection. Assignment
  /// elsewhere (or losing this node's copy) invalidates the entry in O(1);
  /// re-entry repushes so a surviving entry keeps its queue position
  /// (predicate semantics — see util::StaleQueue).
  PendingPools pending;
  /// Pool of degraded pending map tasks, generation-tagged: a task that
  /// left the pool (repair) and re-entered (new failure) joins at the back
  /// instead of reviving its stale entry (ABA queue-jump — see
  /// util::StaleQueue::push).
  util::StaleQueue<int> pending_degraded;
  long pending_nondegraded = 0;
  long m = 0;    ///< launched map tasks
  long md = 0;   ///< launched degraded tasks
  long total_m = 0;
  long total_md = 0;
  /// Blocks fetched by launched degraded tasks (cost-weighted m_d): each
  /// launch adds its actual plan volume, so sub-shard codes pace faster.
  double md_cost = 0.0;
  /// Expected fetch volume of one degraded task (planner's cached mean);
  /// total_md * expected_degraded_cost is the cost-weighted M_d.
  double expected_degraded_cost = 0.0;
  long maps_done = 0;
  double completed_map_runtime_sum = 0.0;  ///< winners only, for speculation

  std::vector<ReduceTaskState> reduces;
  int reduces_assigned = 0;
  int reduces_done = 0;
  std::vector<int> completed_map_records;

  JobMetrics metrics;

  /// Free the scheduling pools once the job can never schedule again
  /// (finished or aborted). The per-node pending pools alone are ~1 MiB per
  /// job at 10k slaves, and a long-horizon run submits thousands of jobs —
  /// without this the master's footprint grows with jobs *submitted* instead
  /// of jobs *in flight*. Task/attempt state (maps, reduces) stays: late
  /// events of losing speculative attempts still look it up. Vectors are
  /// move-assigned from fresh ones: `v = {}` picks the initializer-list
  /// overload, which clears but keeps the capacity.
  void release_scheduling_state() {
    pending.release();
    pending_degraded = {};
    completed_map_records = std::vector<int>();
    planner.reset();
  }
};

struct SlaveState {
  bool alive = true;
  int free_map_slots = 0;
  int free_reduce_slots = 0;
  // Fault layer only (inert otherwise):
  bool heartbeating = true;  ///< compute alive; false between death & detection
  /// Bumped on repair; pending detection/unblacklist timers armed under an
  /// older incarnation no-op.
  util::Epoch incarnation;
  /// Bumped by every new heartbeat loop; an older loop stops at its next
  /// tick (a repair at the failure instant starts a new loop before the old
  /// one has seen the node dead).
  util::Epoch heartbeat_loop;
  util::Seconds last_heartbeat = 0.0;
  util::Seconds compute_fail_time = -1.0;
  int recent_failures = 0;  ///< attempt failures since last (un)blacklist
  bool blacklisted = false;
};

/// The state every phase engine shares: the job/slave/attempt store plus the
/// simulation environment it runs against. The engines (MapPhase,
/// ShufflePhase, FaultSupervisor) and the Master facade all mutate this one
/// store; no engine owns private job state, so a task's lifecycle reads the
/// same truth no matter which engine advances it.
struct MasterState {
  MasterState(sim::Simulator& simulator, net::Network& network,
              const ClusterConfig& config,
              const storage::FailureScenario& failure_scenario,
              util::Rng fetch_rng)
      : sim(simulator),
        net(network),
        cfg(config),
        failure(failure_scenario),
        fetch(simulator, network, failure_scenario, config, fetch_rng) {}

  sim::Simulator& sim;
  net::Network& net;
  const ClusterConfig& cfg;
  const storage::FailureScenario& failure;

  std::vector<JobState> jobs;  ///< FIFO submission order
  /// Ids of jobs that are active and not finished, ascending (jobs activate
  /// in id order and leave on finish/abort). Every per-heartbeat and
  /// per-failure sweep iterates this instead of scanning all submitted jobs
  /// — at 10k slaves the full scan visits thousands of long-finished jobs
  /// per 3 s heartbeat. Iteration order equals the guarded full scan's, so
  /// output is unchanged. Maintained by MapPhase::activate_job and
  /// retire_job.
  std::vector<core::JobId> active_jobs;
  /// The subset of active_jobs with a map task still to launch (m <
  /// total_m), ascending: the runnable list every heartbeat hands the
  /// scheduler. Kept by the count_* calls below and retire_job.
  std::vector<core::JobId> runnable_jobs;
  /// Active jobs with at least one unassigned reduce task; while it is 0, a
  /// heartbeat has no reduce to hand out.
  long jobs_with_unassigned_reduces = 0;
  std::vector<SlaveState> slaves;
  /// Live map attempts by record index (see AttemptSlab).
  AttemptSlab map_attempts;
  std::vector<util::Seconds> last_degraded_assign;  ///< per rack
  std::size_t jobs_done = 0;
  RunResult result;
  /// Runs every degraded map read (see FetchSupervisor).
  FetchSupervisor fetch;
  /// Borrowed from the owning Master (the public `Master::hooks` member).
  TaskHooks* hooks = nullptr;

  JobState& job(core::JobId id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < jobs.size());
    return jobs[static_cast<std::size_t>(id)];
  }
  const JobState& job(core::JobId id) const {
    assert(id >= 0 && static_cast<std::size_t>(id) < jobs.size());
    return jobs[static_cast<std::size_t>(id)];
  }
  core::JobId id_of(const JobState& j) const {
    return static_cast<core::JobId>(&j - jobs.data());
  }
  SlaveState& slave(NodeId id) {
    assert(id >= 0 && static_cast<std::size_t>(id) < slaves.size());
    return slaves[static_cast<std::size_t>(id)];
  }
  const SlaveState& slave(NodeId id) const {
    assert(id >= 0 && static_cast<std::size_t>(id) < slaves.size());
    return slaves[static_cast<std::size_t>(id)];
  }

  /// map_attempts keys (== record indexes) ascending — the slab's insertion
  /// order. Kill/replan sweeps walk this snapshot and re-find each record so
  /// nested erases cannot invalidate the walk.
  std::vector<int> sorted_attempt_records() const {
    return map_attempts.records();
  }

  /// Finish the job once the last map and reduce are done.
  void maybe_finish_job(JobState& j);

  /// Add the just-activated job `j` (the highest id so far) to the indexes.
  void index_activated_job(const JobState& j);
  /// Drop `id` from active_jobs and the runnable indexes and release the
  /// finished job's scheduling pools (see
  /// JobState::release_scheduling_state). Called on finish and abort; the
  /// job must already be marked finished.
  void retire_job(core::JobId id);

  /// ++j.m / --j.m (a map launch and its reversal) and ++/--
  /// j.reduces_assigned, keeping runnable_jobs and
  /// jobs_with_unassigned_reduces exact. Jobs already retired leave the
  /// indexes alone.
  void count_map_launch(JobState& j);
  void count_map_unlaunch(JobState& j);
  void count_reduce_assign(JobState& j);
  void count_reduce_unassign(JobState& j);

  /// True when runnable_jobs and jobs_with_unassigned_reduces equal a
  /// recount over active_jobs (checked by debug builds at every heartbeat).
  bool scheduling_indexes_consistent() const;
};

}  // namespace dfs::mapreduce
