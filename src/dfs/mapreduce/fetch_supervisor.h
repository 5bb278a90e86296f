#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "dfs/mapreduce/config.h"
#include "dfs/mapreduce/metrics.h"
#include "dfs/net/network.h"
#include "dfs/sim/simulator.h"
#include "dfs/storage/degraded.h"
#include "dfs/storage/failure.h"
#include "dfs/util/rng.h"

namespace dfs::mapreduce {

/// Handle to one supervised degraded read. 0 is never issued.
using ReadId = std::uint64_t;

/// What a supervised read hands back to its owner on completion.
struct ReadOutcome {
  /// False: no recovery option left after exhausting fallbacks — the owner
  /// should treat the block as unrecoverable.
  bool ok = false;
  /// The fetches that actually completed and form the reconstruction quorum
  /// (in completion order). Replaces the attempt record's planned sources.
  std::vector<storage::DegradedSource> sources;
};

/// Supervises degraded-read fetches: hedging with cancel-on-quorum, per-fetch
/// timeouts, bounded retries with exponential backoff, fallback replanning
/// when a source is exhausted or its node dies, and storage fault injection
/// (straggler service jitter, transient fetch failures).
///
/// The supervisor is self-contained over the simulator, the network, the
/// failure scenario, and the config's hedge/fetch/straggler knobs. The
/// master owns one per run and sends every degraded map read through it;
/// each RepairProcess owns one (every knob at its default) for its block
/// rebuild reads; bench/ablation_hedging drives one directly for the
/// MDS-queue validation leg. Injection draws and replan shuffles come from its own Rng, so
/// owner-side streams are untouched by supervision. With every knob at its
/// default it draws nothing except for a fallback replan after a source's
/// node dies, and schedules no events of its own.
///
/// Lifecycle of one read:
///
///   start_read(plan) ── launch primary + hedge fetches
///        │                 each: [service jitter] → transfer → complete
///        │                 transient failure / timeout → backoff → retry
///        │                 retries exhausted → exclude source, replan
///        ├─ quorum reconstructs the block → cancel losers → done(ok)
///        ├─ no recovery option left       → done(!ok)   (unrecoverable)
///        └─ cancel_read / owner teardown  → no callback
class FetchSupervisor {
 public:
  FetchSupervisor(sim::Simulator& sim, net::Network& net,
                  const storage::FailureScenario& failure,
                  const ClusterConfig& cfg, util::Rng rng);

  /// Start supervising one degraded read for `reader`. The plan comes from
  /// DegradedReadPlanner::plan_hedged (the caller spends its own RNG on the
  /// primary choice, exactly like the unhedged path); `planner` must outlive
  /// the read — fallback replans go through it with the supervisor's own RNG.
  /// `done` fires exactly once unless the read is cancelled first.
  ReadId start_read(const storage::DegradedReadPlanner& planner,
                    storage::HedgedPlan plan, NodeId reader,
                    std::function<void(ReadOutcome)> done);

  /// Tear down a read without firing its callback (attempt killed, job
  /// aborted). Outstanding fetches are cancelled and recorded as abandoned.
  /// Safe on unknown/completed ids.
  void cancel_read(ReadId id);

  /// A node's storage failed: every in-flight fetch from it dies and its
  /// reads fall back to alternative sources. Reads executing *on* the node
  /// are untouched — compute failure is the fault supervisor's business and
  /// arrives as cancel_read.
  void on_node_failed(NodeId node);

  const HedgeStats& stats() const { return stats_; }
  const std::vector<FetchRecord>& fetch_records() const { return records_; }
  /// Hand the fetch records over (end of run); the supervisor keeps none.
  std::vector<FetchRecord> take_fetch_records() { return std::move(records_); }
  int active_reads() const { return static_cast<int>(reads_.size()); }

 private:
  struct Fetch {
    int shard = -1;
    storage::DegradedSource src;
    bool hedge = false;
    int attempts = 0;  ///< launches so far (1 after the first)
    bool done = false;
    bool exhausted = false;          ///< retries spent or source dead
    net::FlowId flow = 0;            ///< nonzero while bytes are flowing
    sim::EventId pending{};          ///< service-jitter or backoff event
    sim::EventId timeout{};          ///< armed per-attempt timeout
    util::Seconds start = -1.0;      ///< current attempt's launch time
    std::uint64_t gen = 0;           ///< guards stale flow callbacks
  };

  struct Read {
    const storage::DegradedReadPlanner* planner = nullptr;
    storage::BlockId lost{};
    NodeId reader = -1;
    ec::RecoveryPlan options;        ///< quorum candidates (refreshed on replan)
    std::vector<unsigned> completed; ///< per-shard completed substripe masks
    std::vector<char> exclude;       ///< per-shard: exhausted, skip in replans
    /// Retry/reset budget spent but the stripe is structurally recoverable:
    /// the read runs plain fetches (no timeout, no injection) to guarantee
    /// progress. Only structural loss fails a read.
    bool last_resort = false;
    std::vector<Fetch> fetches;
    std::vector<storage::DegradedSource> arrived;  ///< in completion order
    int completed_count = 0;
    int resets = 0;  ///< exclusion resets spent (transient-exhaustion escape)
    std::function<void(ReadOutcome)> done;
  };

  /// Add a fetch slot for `src` (unless its shard already has one live or
  /// completed slot) and launch it.
  void admit_fetch(ReadId id, Read& read, const storage::DegradedSource& src,
                   bool hedge);
  void launch_fetch(ReadId id, Read& read, std::size_t idx);
  void start_transfer(ReadId id, Read& read, std::size_t idx);
  void on_fetch_completed(ReadId id, std::size_t idx, std::uint64_t gen);
  /// A fetch attempt died (timeout / transient failure / source death):
  /// record it, then retry with backoff or exhaust the source and replan.
  void on_fetch_failed(ReadId id, Read& read, std::size_t idx,
                       FetchOutcome why);
  /// Re-plan around the exhausted sources and admit any newly needed fetches;
  /// fails the read when no recovery option remains.
  void fallback_replan(ReadId id, Read& read);
  /// Finish now if the completed fetches reconstruct the block (and the
  /// min_quorum gate allows it, or nothing more can arrive). Returns true
  /// when the read finished (and was erased).
  bool try_finish(ReadId id, Read& read);
  void finish_read(ReadId id, Read& read);
  /// Supervision budget exhausted: drop to last-resort plain fetches when
  /// the stripe is structurally recoverable, fail the read otherwise.
  void fail_read(ReadId id, Read& read);
  /// Cancel the fetch's armed events/flow and mark it exhausted.
  void quash_fetch(Read& read, Fetch& f, FetchOutcome why);
  void record(const Read& read, const Fetch& f, FetchOutcome outcome);

  double draw_service_delay(NodeId src);
  util::Seconds fetch_deadline() const { return cfg_.fetch.timeout; }

  sim::Simulator& sim_;
  net::Network& net_;
  const storage::FailureScenario& failure_;
  const ClusterConfig& cfg_;
  util::Rng rng_;

  // std::map: on_node_failed iterates reads in id order — deterministic.
  std::map<ReadId, Read> reads_;
  ReadId next_read_id_ = 1;
  std::uint64_t next_gen_ = 1;

  HedgeStats stats_;
  std::vector<FetchRecord> records_;
};

}  // namespace dfs::mapreduce
