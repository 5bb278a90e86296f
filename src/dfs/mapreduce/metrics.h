#pragma once

#include <vector>

#include "dfs/mapreduce/types.h"
#include "dfs/storage/degraded.h"
#include "dfs/storage/layout.h"
#include "dfs/util/units.h"

namespace dfs::mapreduce {

/// Everything recorded about one executed map task attempt.
struct MapTaskRecord {
  TaskId id = -1;
  JobId job = -1;
  storage::BlockId block{};
  int map_index = -1;  ///< the task's index within its job
  int attempt = 0;     ///< 0 for the first attempt of the task
  NodeId exec_node = -1;
  /// Where the input block (or replica) was fetched from; == exec_node for
  /// node-local tasks, unset (-1) for degraded tasks (see `sources`).
  NodeId source_node = -1;
  MapTaskKind kind = MapTaskKind::kNodeLocal;
  /// The executing node's speed factor (ClusterConfig::time_scale) at launch
  /// — the attempt-trace view of the speed model. 1.0 on uniform clusters.
  double time_scale = 1.0;
  util::Seconds assign_time = -1.0;
  util::Seconds fetch_done_time = -1.0;  ///< input available (== assign for node-local)
  util::Seconds finish_time = -1.0;
  std::vector<storage::DegradedSource> sources;  ///< degraded tasks only
  bool unrecoverable = false;  ///< stripe lost more blocks than tolerable
  bool speculative = false;    ///< backup copy launched by speculation
  bool winner = true;          ///< finished first among its task's attempts
  AttemptOutcome outcome = AttemptOutcome::kSuccess;
  /// The attempt won, but its map output later died with its node and the
  /// task was re-executed (lost-map-output recovery).
  bool output_lost = false;

  /// Paper definition (§VI): launch to completion, including transmission.
  util::Seconds runtime() const { return finish_time - assign_time; }
  /// Degraded read time (§V-C): request issue until the k-th block arrives.
  util::Seconds degraded_read_time() const {
    return fetch_done_time - assign_time;
  }
};

/// How one degraded-read fetch attempt ended (fetch supervisor).
enum class FetchOutcome {
  kCompleted,        ///< all bytes arrived
  kCancelledQuorum,  ///< a loser: quorum completed without it
  kTimeout,          ///< exceeded FetchPolicy::timeout
  kTransientFailure, ///< injected transient fetch failure
  kSourceDead,       ///< the source node failed mid-fetch
  kAbandoned,        ///< its read was torn down (attempt kill / job abort)
};

/// One degraded-read fetch attempt, for tail-latency metrics.
struct FetchRecord {
  util::Seconds start = -1.0;  ///< attempt launch (service wait included)
  util::Seconds end = -1.0;
  NodeId src = -1;
  NodeId dst = -1;
  double fraction = 1.0;  ///< of a block actually requested
  bool hedge = false;     ///< launched as an extra (hedge) source
  int attempt = 0;        ///< 0 for the first try of this source
  FetchOutcome outcome = FetchOutcome::kCompleted;

  util::Seconds latency() const { return end - start; }
};

/// Fetch-supervisor counters.
struct HedgeStats {
  std::uint64_t reads_started = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t reads_failed = 0;     ///< no recovery option left
  std::uint64_t reads_cancelled = 0;  ///< torn down by the caller
  std::uint64_t fetches_launched = 0;
  std::uint64_t hedges_launched = 0;   ///< of those, extra (hedge) sources
  std::uint64_t losers_cancelled = 0;  ///< outstanding fetches at quorum
  std::uint64_t fetch_timeouts = 0;
  std::uint64_t transient_failures = 0;
  std::uint64_t fetch_retries = 0;
  std::uint64_t fallback_replans = 0;  ///< after source exhaustion or death
  /// Reads that spent their whole retry/reset budget and fell back to a
  /// plain unsupervised fetch (structurally recoverable stripes never fail).
  std::uint64_t last_resort_reads = 0;
};

/// Everything recorded about one executed reduce task attempt.
struct ReduceTaskRecord {
  TaskId id = -1;
  JobId job = -1;
  int attempt = 0;  ///< 0 for the first attempt of the task
  NodeId exec_node = -1;
  util::Seconds assign_time = -1.0;
  util::Seconds shuffle_done_time = -1.0;  ///< all partitions fetched
  util::Seconds process_start_time = -1.0;
  util::Seconds finish_time = -1.0;
  AttemptOutcome outcome = AttemptOutcome::kSuccess;

  util::Seconds runtime() const { return finish_time - assign_time; }
};

/// Per-job milestones and counters.
struct JobMetrics {
  JobId id = -1;
  int tenant = 0;  ///< tenant class (JobSpec::tenant)
  util::Seconds submit_time = 0.0;
  util::Seconds first_map_launch = -1.0;
  util::Seconds map_phase_end = -1.0;
  util::Seconds finish_time = -1.0;
  int local_tasks = 0;   ///< node-local + rack-local
  int remote_tasks = 0;
  int degraded_tasks = 0;
  /// Aborted after a task exhausted its attempts; finish_time is the abort
  /// time and the job produced no output.
  bool failed = false;

  /// The paper's MapReduce runtime: first map launch to last reduce end.
  util::Seconds runtime() const { return finish_time - first_map_launch; }
  /// Queueing-inclusive latency, used for multi-job fairness discussions.
  util::Seconds latency() const { return finish_time - submit_time; }
};

/// One heartbeat-expiry detection: a slave's compute died at fail_time and
/// the master noticed (declared it dead, reaped its attempts) at detect_time.
struct DetectionRecord {
  NodeId node = -1;
  util::Seconds fail_time = -1.0;
  util::Seconds detect_time = -1.0;

  util::Seconds latency() const { return detect_time - fail_time; }
};

/// Full outcome of one simulated run.
struct RunResult {
  std::vector<MapTaskRecord> map_tasks;
  std::vector<ReduceTaskRecord> reduce_tasks;
  std::vector<JobMetrics> jobs;
  std::vector<DetectionRecord> detections;  ///< declared slave deaths
  std::vector<FetchRecord> degraded_fetches;  ///< every fetch attempt
  HedgeStats hedge;  ///< fetch-supervisor counters
  int blacklist_events = 0;  ///< slaves blacklisted (re-blacklists count)
  util::Seconds makespan = 0.0;
  bool data_loss = false;  ///< some block was unrecoverable

  // --- aggregation helpers used by the benches -------------------------------
  /// Mean runtime of map tasks of the given kind (over all jobs); 0 if none.
  double mean_map_runtime(MapTaskKind kind) const;
  /// Mean runtime of "normal" map tasks: local + remote (Table I row 1).
  double mean_normal_map_runtime() const;
  /// Mean degraded read time over degraded tasks; 0 if none.
  double mean_degraded_read_time() const;
  /// Total blocks downloaded by degraded reads (sum of per-source fetch
  /// fractions over every degraded attempt): k per read for MDS codes, less
  /// for locality/sub-shard codes (LRC, Hitchhiker-XOR).
  double degraded_fetch_blocks() const;
  /// degraded_fetch_blocks() per degraded attempt; 0 if none ran.
  double mean_degraded_fetch_blocks() const;
  double mean_reduce_runtime() const;
  int count_map_tasks(MapTaskKind kind) const;
  /// Speculative backup attempts launched / wasted (lost the race).
  int speculative_attempts() const;
  int speculative_losses() const;
  /// Runtime of the single job in a single-job run.
  util::Seconds single_job_runtime() const;
  // Fault-tolerance accounting (all zero when the fault layer is off).
  int count_map_attempts(AttemptOutcome outcome) const;
  int count_reduce_attempts(AttemptOutcome outcome) const;
  int jobs_failed() const;
  /// Mean heartbeat-expiry detection latency; 0 if no slave death was
  /// detected.
  util::Seconds mean_detection_latency() const;
};

}  // namespace dfs::mapreduce
