#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "dfs/net/topology.h"
#include "dfs/sim/simulator.h"
#include "dfs/util/epoch.h"
#include "dfs/util/units.h"

namespace dfs::util {
class JsonlWriter;
}

namespace dfs::net {

/// How concurrent transfers share a link.
///
/// The paper's simulator "notifies the NodeTree structure to hold the
/// communication link for a duration needed for the data transmission" —
/// i.e. exclusive FIFO holds. Real TCP flows approximate max–min fair
/// sharing. Both reproduce the headline contention effect (two simultaneous
/// cross-rack degraded reads into one rack finish in twice the time of one),
/// so we support both and compare them in bench/ablation_contention.
enum class ContentionModel {
  kMaxMinFairShare,  ///< fluid-flow water-filling (default)
  kExclusiveFifo,    ///< the paper's NodeTree hold model
};

/// Per-link bandwidths of the two-level tree. `util::kUnlimitedBandwidth`
/// (0) removes a link from the contention set entirely. The paper's analysis
/// and simulation contend only on the per-rack links (bandwidth W), so node
/// links default to unlimited.
struct LinkConfig {
  util::BytesPerSec node_up = util::kUnlimitedBandwidth;
  util::BytesPerSec node_down = util::kUnlimitedBandwidth;
  util::BytesPerSec rack_up = util::gigabits_per_sec(1.0);
  util::BytesPerSec rack_down = util::gigabits_per_sec(1.0);
  util::BytesPerSec core = util::kUnlimitedBandwidth;  ///< aggregate core cap
};

using FlowId = std::uint64_t;

/// Flow-level network model over a Topology, driven by a Simulator.
///
/// Transfers are fluid flows routed src-node-up → src-rack-up → core →
/// dst-rack-down → dst-node-down (segments collapse away when the endpoints
/// share a rack or a node, or when a segment is unlimited). Completion
/// callbacks fire at the simulated completion time.
///
/// The max–min fair-share model allocates rates by water-filling, organized
/// around three exact optimizations (docs/performance.md has the full
/// derivation):
///
/// - **Flow classes.** Flows with the same contended path receive the same
///   max–min rate, so they collapse into one class with a multiplicity
///   count; water-filling runs over classes, not flows. Under the default
///   LinkConfig every cross-rack flow contends on exactly its two rack
///   links, so the class count is bounded by rack pairs regardless of how
///   many flows are in flight.
/// - **Component-scoped recompute.** Max–min allocations decompose over
///   connected components of the class/link sharing graph, so a change
///   re-waterfills only the component it touched (discovered by flood-fill
///   from the changed links); everyone else's rate is provably unchanged.
/// - **Batch coalescing.** transfer()/cancel()/completions mark their links
///   dirty and schedule one zero-delay recompute through the simulator, so
///   a k-source degraded read or an n-flow shuffle wave pays one pass per
///   simulated timestamp instead of k or n.
class Network {
 public:
  /// Counter snapshot for observability (JSONL reporting in the tools).
  struct Stats {
    std::uint64_t flows_started = 0;
    std::uint64_t flows_completed = 0;
    std::uint64_t flows_cancelled = 0;
    std::uint64_t fast_paths = 0;          ///< single-class component passes
    std::uint64_t full_recomputes = 0;     ///< naive passes (cross-check)
    std::uint64_t batched_recomputes = 0;  ///< coalesced recompute events
    std::uint64_t component_recomputes = 0;  ///< multi-class component passes
    int classes_active = 0;                  ///< live flow classes right now
    util::Bytes bytes_delivered = 0.0;
  };

  Network(sim::Simulator& simulator, const Topology& topology,
          const LinkConfig& links,
          ContentionModel model = ContentionModel::kMaxMinFairShare);

  /// Start a transfer of `size` bytes from `src` to `dst`; `done` fires when
  /// the last byte arrives. A transfer with an empty contended path (e.g.
  /// src == dst, or all links on the path unlimited) completes after zero
  /// simulated time, on the next event-loop dispatch.
  FlowId transfer(NodeId src, NodeId dst, util::Bytes size,
                  std::function<void()> done);

  /// Cancel an in-flight transfer: its callback never fires and its share of
  /// every link is released immediately. Idempotent — a second cancel of the
  /// same flow returns false and changes nothing. Safe against the
  /// cancel-after-completion race inside a same-timestamp completion batch:
  /// when a completion callback cancels another flow that finished in the
  /// same batch but whose callback has not yet been delivered (a hedged
  /// loser crossing the line together with the winner), the victim's
  /// callback is suppressed and the flow counts as cancelled, not
  /// completed. Returns false when the flow is not cancellable — already
  /// completed (callback delivered), unknown, or uncontended (uncontended
  /// flows complete on the next dispatch and are never tracked; callers must
  /// guard their callbacks instead).
  bool cancel(FlowId id);

  /// Lower bound on the completion time of one isolated transfer.
  util::Seconds isolated_transfer_time(NodeId src, NodeId dst,
                                       util::Bytes size) const;

  ContentionModel model() const { return model_; }
  const Topology& topology() const { return topology_; }

  /// Debug mode: after every batched fair-share recompute, re-derive every
  /// rate with a naive per-flow water-filling pass over the whole active set
  /// and verify the class-aggregated, component-scoped engine produced the
  /// same allocation (throws std::logic_error on divergence). Also checks
  /// the class bookkeeping invariants. Costs a full pass per recompute — for
  /// tests only.
  void set_fair_share_cross_check(bool on) { cross_check_ = on; }

  // --- observability -------------------------------------------------------
  std::uint64_t flows_started() const { return flows_started_; }
  std::uint64_t flows_completed() const { return flows_completed_; }
  std::uint64_t flows_cancelled() const { return flows_cancelled_; }
  /// Fair-share component passes that collapsed to a single class: the rate
  /// is its path bottleneck divided by its multiplicity, no water-filling
  /// loop needed (subsumes the old isolated-add/idle-removal fast paths).
  std::uint64_t fair_share_fast_paths() const { return fast_paths_; }
  /// Naive per-flow water-filling passes executed. The production engine
  /// never runs these anymore; they count cross-check reference passes.
  std::uint64_t fair_share_full_recomputes() const { return full_recomputes_; }
  /// Coalesced zero-delay recompute events processed (one per simulated
  /// timestamp with fair-share changes, however many flows changed).
  std::uint64_t fair_share_batched_recomputes() const {
    return batched_recomputes_;
  }
  /// Water-filling passes over a multi-class connected component.
  std::uint64_t fair_share_component_recomputes() const {
    return component_recomputes_;
  }
  /// Live flow classes (distinct contended paths with at least one flow).
  int fair_share_classes_active() const {
    return static_cast<int>(class_by_path_.size());
  }
  Stats stats() const;
  util::Bytes bytes_delivered() const { return bytes_delivered_; }
  int active_flow_count() const { return static_cast<int>(active_.size()); }
  /// Total time the given rack's downlink had at least one active flow.
  util::Seconds rack_down_busy_time(RackId r) const;

 private:
  struct Link {
    util::BytesPerSec capacity = util::kUnlimitedBandwidth;
    int active_flows = 0;       // flows currently routed through (both models)
    bool held = false;          // kExclusiveFifo: exclusively held
    util::Seconds busy_since = 0.0;
    util::Seconds busy_total = 0.0;
  };

  struct Flow {
    FlowId id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    util::Bytes size = 0.0;
    util::Bytes remaining = 0.0;
    int cls = -1;  // fair-share model: index into classes_
    std::vector<int> links;
    std::function<void()> done;
    sim::EventId completion{};  // kExclusiveFifo: armed completion event
  };

  /// One equivalence class of fair-share flows: every flow with this
  /// contended path. Max–min gives them all the same rate, so the class
  /// carries one rate and a multiplicity; water-filling runs over classes.
  struct FlowClass {
    std::vector<int> links;     ///< the shared contended path
    std::vector<int> link_pos;  ///< this class's slot in link_classes_[links[i]]
    int count = 0;              ///< member flows
    double rate = 0.0;          ///< bytes/sec per member flow
    double wf_rate = 0.0;       ///< water-filling scratch (unfrozen marker)
    util::Epoch::Ticket visit = 0;  ///< flood-fill epoch mark
  };

  struct PathHash {
    std::size_t operator()(const std::vector<int>& p) const {
      std::size_t h = 1469598103934665603ull;
      for (int v : p) {
        h ^= static_cast<std::size_t>(static_cast<unsigned>(v));
        h *= 1099511628211ull;
      }
      return h;
    }
  };

  std::vector<int> contended_path(NodeId src, NodeId dst) const;

  // Fair-share model.
  void fair_share_add(Flow flow);
  void fair_share_advance();
  /// Find or create the class for `path`; returns its index.
  int fair_share_class_for(const std::vector<int>& path);
  /// Drop one member from flow's class, destroying the class at zero.
  void fair_share_leave_class(const Flow& flow);
  /// Mark the flow's links dirty and ensure one zero-delay recompute event
  /// is queued; also disarms the stale completion horizon (the recompute
  /// re-arms from fresh rates, exactly like the old per-op re-arm did).
  void fair_share_mark_dirty(const std::vector<int>& links);
  /// The coalesced recompute: flood-fill components from the dirty links,
  /// water-fill each touched component over its classes, cross-check if
  /// enabled, re-arm the completion horizon.
  void fair_share_batched_recompute();
  /// One flood-filled component, as ranges into comp_links_/comp_classes_.
  struct ComponentRange {
    std::size_t links_begin = 0;
    std::size_t links_end = 0;
    std::size_t classes_begin = 0;
    std::size_t classes_end = 0;
  };
  /// Water-fill one component. Touches only that component's classes and
  /// scratch slots (disjoint across components).
  void fair_share_waterfill_component(const ComponentRange& comp);
  void fair_share_arm();
  void fair_share_on_completion();
  /// Naive per-flow water-filling over the whole active set (the reference
  /// the optimized engine must agree with); writes into `out`.
  void fair_share_naive_rates(std::unordered_map<FlowId, double>& out);
  void fair_share_cross_check();

  // Exclusive-FIFO model.
  void fifo_try_start_pending();
  void fifo_complete(FlowId id);

  void mark_links_active(const std::vector<int>& links, int delta);
  void finish_flow(Flow& flow);

  // Link index layout: [0, 2N) node up/down, [2N, 2N+2R) rack up/down,
  // [2N+2R] core.
  int node_up_link(NodeId n) const { return 2 * n; }
  int node_down_link(NodeId n) const { return 2 * n + 1; }
  int rack_up_link(RackId r) const { return 2 * topology_.num_nodes() + 2 * r; }
  int rack_down_link(RackId r) const {
    return 2 * topology_.num_nodes() + 2 * r + 1;
  }
  int core_link() const {
    return 2 * topology_.num_nodes() + 2 * topology_.num_racks();
  }

  sim::Simulator& sim_;
  const Topology& topology_;
  ContentionModel model_;
  std::vector<Link> links_;

  FlowId next_flow_id_ = 1;
  std::unordered_map<FlowId, Flow> active_;
  std::deque<Flow> fifo_pending_;

  // Fair-share bookkeeping.
  util::Seconds last_advance_ = 0.0;
  sim::EventId next_completion_{};

  // Flow classes and the class/link sharing graph.
  std::vector<FlowClass> classes_;  ///< slab; free slots on free_classes_
  std::vector<int> free_classes_;
  std::unordered_map<std::vector<int>, int, PathHash> class_by_path_;
  /// Per link: (class index, slot of this link in that class's `links`).
  /// The back-reference keeps swap-removal O(1) on class destruction.
  std::vector<std::vector<std::pair<int, int>>> link_classes_;

  // Dirty set between coalesced recomputes.
  std::vector<int> dirty_links_;
  std::vector<char> link_dirty_;
  bool recompute_scheduled_ = false;

  // Completion-batch dispatch state: while fair_share_on_completion delivers
  // its batch of callbacks, cancel() of a later flow in the same batch marks
  // it suppressed here instead of failing (a hedged read cancelling a loser
  // that finished in the winner's timestamp batch). Null outside dispatch.
  std::vector<Flow>* dispatch_batch_ = nullptr;
  std::size_t dispatch_pos_ = 0;
  std::vector<char> dispatch_suppressed_;

  // Flood-fill + water-filling scratch, reused across recomputes. Residuals
  // and counts are only read for links seeded by the current component, so
  // they never need a global clear; `visit_epoch_` versions the flood-fill
  // marks the same way.
  util::Epoch visit_epoch_;
  std::vector<util::Epoch::Ticket> link_visit_;
  std::vector<int> comp_links_;    ///< doubles as the flood-fill queue
  std::vector<int> comp_classes_;
  std::vector<double> scratch_residual_;
  std::vector<int> scratch_count_;
  std::vector<int> scratch_touched_;  ///< naive reference pass only
  std::vector<std::vector<FlowId>> scratch_link_flows_;  ///< naive pass only

  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_cancelled_ = 0;
  std::uint64_t fast_paths_ = 0;
  std::uint64_t full_recomputes_ = 0;
  std::uint64_t batched_recomputes_ = 0;
  std::uint64_t component_recomputes_ = 0;
  bool cross_check_ = false;
  util::Bytes bytes_delivered_ = 0.0;
};

/// Append the Stats counters to an open JSONL record, in the canonical field
/// order shared by every tool that reports network statistics. The caller
/// owns begin()/end() and any leading fields (e.g. dfsim's per-seed tag).
void append_net_stats(util::JsonlWriter& w, const Network::Stats& s);

}  // namespace dfs::net
