#pragma once

#include <functional>
#include <iosfwd>
#include <vector>

#include "dfs/cluster/lifecycle.h"
#include "dfs/mapreduce/master.h"
#include "dfs/mapreduce/metrics.h"
#include "dfs/net/network.h"
#include "dfs/sim/simulator.h"

namespace dfs::cluster {

/// One point of the per-interval cluster timeline.
struct TimelineSample {
  util::Seconds time = 0.0;          ///< end of the interval
  int jobs_in_system = 0;            ///< submitted and not yet finished
  int failed_nodes = 0;
  int repair_backlog = 0;            ///< blocks queued or being rebuilt
  /// Mean busy fraction of the rack downlinks over the interval (job,
  /// shuffle, and repair traffic combined).
  double rack_down_utilization = 0.0;
};

/// Periodically samples master / lifecycle / network state into a timeline.
class ClusterSampler {
 public:
  ClusterSampler(sim::Simulator& simulator, net::Network& network,
                 const mapreduce::Master& master,
                 const LifecycleDriver& lifecycle, util::Seconds interval,
                 std::function<bool()> keep_going);

  /// Arms the periodic sampling. Call before Simulator::run(). One final
  /// sample is taken when keep_going() first returns false.
  void start();

  const std::vector<TimelineSample>& samples() const { return samples_; }

 private:
  void sample();

  sim::Simulator& sim_;
  net::Network& net_;
  const mapreduce::Master& master_;
  const LifecycleDriver& lifecycle_;
  util::Seconds interval_;
  std::function<bool()> keep_going_;
  std::vector<double> prev_busy_;  ///< per-rack downlink busy time
  util::Seconds prev_time_ = 0.0;
  std::vector<TimelineSample> samples_;
};

/// Steady-state view of one long-horizon run: jobs submitted inside
/// [warmup, horizon] form the measurement window (warm-up transients and the
/// drain tail are excluded); the window's completion latencies give the
/// percentiles.
struct SteadyStateSummary {
  util::Seconds warmup = 0.0;
  util::Seconds horizon = 0.0;
  int jobs_submitted = 0;  ///< whole run
  int jobs_completed = 0;
  /// Jobs aborted after a task exhausted its attempts (fault layer; 0
  /// otherwise). Failed jobs count in neither jobs_completed nor the
  /// latency percentiles.
  int jobs_failed = 0;
  int jobs_measured = 0;   ///< submitted inside the measurement window
  /// Completion-latency samples behind the percentiles below (measured jobs
  /// that finished). Explicit so thin-sample percentiles are auditable —
  /// the tools warn when p99 rests on fewer than 10 samples.
  int latency_samples = 0;
  double latency_p50 = 0.0;   ///< submit-to-finish, measured jobs
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_mean = 0.0;
  double mean_job_runtime = 0.0;  ///< first-map-launch-to-finish
  /// Fraction of the measured jobs' map tasks that ran degraded.
  double degraded_task_fraction = 0.0;
  /// Mean block equivalents fetched per recoverable degraded read of the
  /// measured jobs (sum of RecoveryPlan source fractions — fractional for
  /// sub-shard codes like Hitchhiker, k for plain RS). 0 when no degraded
  /// task ran.
  double mean_degraded_fetch_blocks = 0.0;
  // --- degraded-read tail latency (the JSONL "hedging" record) --------------
  /// Per-task degraded read time (request issue to reconstructability) of
  /// the measured jobs' recoverable degraded tasks.
  double degraded_read_p50 = 0.0;
  double degraded_read_p99 = 0.0;
  double degraded_read_p999 = 0.0;
  int degraded_read_samples = 0;
  /// Per-fetch latency (attempt launch, service wait included, to last
  /// byte) of completed fetches launched inside the window.
  double fetch_p50 = 0.0;
  double fetch_p99 = 0.0;
  double fetch_p999 = 0.0;
  int fetch_samples = 0;
  mapreduce::HedgeStats hedge;  ///< fetch-supervisor counters
  // --- per-tenant latency (multi-tenant streams; the JSONL "tenant"
  // records) ---------------------------------------------------------------
  /// Completion-latency percentiles of one tenant class's measured jobs.
  struct TenantSummary {
    int tenant = 0;
    int jobs_measured = 0;    ///< class jobs submitted inside the window
    int latency_samples = 0;  ///< of those, finished (the percentile base)
    double latency_p50 = 0.0;
    double latency_p95 = 0.0;
    double latency_p99 = 0.0;
    double latency_mean = 0.0;
  };
  /// One entry per tenant class seen among the run's jobs, ordered by class
  /// id. Single-tenant runs (every job in class 0) leave this empty — the
  /// breakdown would just repeat the overall percentiles.
  std::vector<TenantSummary> tenants;
  int failures_injected = 0;
  int rack_failures = 0;
  int blocks_repaired = 0;
  int blocks_unrecoverable = 0;
  int max_repair_backlog = 0;
  double mean_rack_down_utilization = 0.0;  ///< over the measurement window
  bool data_loss = false;
};

/// Everything one cluster run produces: the raw per-task/job records (the
/// same RunResult the snapshot simulations emit, so the existing
/// mapreduce::trace writers apply), the steady-state summary, the sampled
/// timeline, and the failure log.
struct ClusterResult {
  mapreduce::RunResult run;
  SteadyStateSummary summary;
  std::vector<TimelineSample> timeline;
  std::vector<FailureEvent> failures;
  /// Network engine counters for the run (flow totals, recompute/fast-path
  /// breakdown — see net::Network::Stats); the JSONL "net_stats" record.
  net::Network::Stats net_stats;
};

/// Computes the summary from the run's records plus the lifecycle/timeline
/// outputs. Exposed for tests; ClusterSimulation::run() calls it.
SteadyStateSummary summarize_steady_state(
    const mapreduce::RunResult& run, const std::vector<FailureEvent>& failures,
    const std::vector<TimelineSample>& timeline, util::Seconds warmup,
    util::Seconds horizon);

/// One JSON object per line: a "summary", a "net_stats" and a "hedging"
/// line, one "tenant" line per class of a multi-tenant run, then "failure",
/// "sample" and measured "job" lines in that order. Every run writes the
/// same record shape; only the tenant lines and the job lines' "tenant"
/// field depend on the run (SteadyStateSummary::tenants non-empty).
/// Deterministic for a given seed — byte-identical across runs.
void write_cluster_jsonl(std::ostream& os, const ClusterResult& result);

/// CSV of the timeline (one row per sample interval).
void write_timeline_csv(std::ostream& os, const ClusterResult& result);

}  // namespace dfs::cluster
