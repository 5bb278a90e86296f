#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <tuple>
#include <unordered_map>
#include <utility>
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
};

/// Handle to a transfer: its flow-slab slot in the high 32 bits and the
/// slot's generation in the low 32. Generations start at 1, so a handle is
/// never 0 and callers may keep 0 as "no flow". A handle to a flow that
/// completed or was cancelled (its slot freed, maybe reused since) no longer
/// matches its slot's generation and is detected in O(1).
using FlowId = std::uint64_t;

/// Flow-level network model over a Topology, driven by a Simulator.
///
/// Transfers are fluid flows routed src-node-up → src-rack-up →
/// dst-rack-down → dst-node-down (segments collapse away when the endpoints
/// share a rack or a node, or when a segment is unlimited). The core switch
/// is non-blocking, as in the paper's model, so it never contends. Completion
/// callbacks fire at the simulated completion time. Flows that finish at
/// the same instant are delivered in the order they were started, the same
/// FIFO tie-break the event kernel gives same-time events.
///
/// Every flow lives in a slab of generation-tagged slots (the pattern of
/// sim::Simulator's event slots): its path is an inline array and its
/// callback a sim::SmallFn, so starting a flow allocates nothing once the
/// slab has grown, and cancel() is an indexed access.
///
/// The max–min fair-share model allocates rates by water-filling, organized
/// around exact optimizations (docs/performance.md has the full derivation):
///
/// - **Flow classes.** Flows with the same contended path receive the same
///   max–min rate, so they collapse into one class with a multiplicity
///   count; water-filling runs over classes, not flows. Under the default
///   LinkConfig every cross-rack flow contends on exactly its two rack
///   links, so the class count is bounded by rack pairs regardless of how
///   many flows are in flight.
/// - **Live groups.** The per-timestamp passes (advance, arm, collect
///   finished) sweep dense arrays of live *groups*, not flows: a new flow
///   joins its class's most recent group when that group's residual equals
///   the flow's size bit for bit (a shuffle fan-out's partitions to one
///   rack, started at one instant). Members share a class rate and a
///   residual, so they take the same floating-point steps as separate
///   entries would and finish in the same batch; each keeps its own slot,
///   handle and start order, and a single flow is a group of one.
/// - **Component-scoped recompute.** Max–min allocations decompose over
///   connected components of the class/link sharing graph, so a change
///   re-waterfills only the component it touched (discovered by flood-fill
///   from the changed links); everyone else's rate is provably unchanged.
///   A link's residual is replayed only while it still has unfrozen flows.
/// - **Batch coalescing.** transfer()/cancel()/completions mark their links
///   dirty and schedule one zero-delay recompute through the simulator, so
///   a k-source degraded read or an n-flow shuffle wave pays one pass per
///   simulated timestamp instead of k or n. Consecutive uncontended
///   transfers share one zero-delay delivery event while it is still the
///   last event the kernel has scheduled, which delivers them in the order
///   separate events would.
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
    // Work counters, not written by append_net_stats.
    std::uint64_t live_groups_started = 0;  ///< flows that joined no group
    std::uint64_t delivery_events = 0;  ///< zero-delay uncontended deliveries
    std::uint64_t waterfill_subtractions = 0;  ///< per-member residual steps
  };

  Network(sim::Simulator& simulator, const Topology& topology,
          const LinkConfig& links,
          ContentionModel model = ContentionModel::kMaxMinFairShare);

  /// Start a transfer of `size` bytes from `src` to `dst`; `done` fires when
  /// the last byte arrives. A transfer with an empty contended path (e.g.
  /// src == dst, or all links on the path unlimited) completes after zero
  /// simulated time, on the next event-loop dispatch.
  FlowId transfer(NodeId src, NodeId dst, util::Bytes size,
                  sim::SmallFn done);

  /// Cancel an in-flight transfer: its callback never fires and its share of
  /// every link is released immediately. Idempotent — a second cancel of the
  /// same flow returns false and changes nothing. Safe against the
  /// cancel-after-completion race inside a same-timestamp completion batch:
  /// when a completion callback cancels another flow that finished in the
  /// same batch but whose callback has not yet been delivered (a hedged
  /// loser crossing the line together with the winner), the victim's
  /// callback is suppressed and the flow counts as cancelled, not
  /// completed. Returns false when the flow is not cancellable — already
  /// completed (callback delivered), unknown or stale, or uncontended
  /// (uncontended flows complete on the next dispatch whatever happens;
  /// callers must guard their callbacks instead).
  bool cancel(FlowId id);

  /// Lower bound on the completion time of one isolated transfer.
  util::Seconds isolated_transfer_time(NodeId src, NodeId dst,
                                       util::Bytes size) const;

  const Topology& topology() const { return topology_; }

  /// Debug mode: after every batched fair-share recompute, re-derive every
  /// flow's rate with a naive per-flow water-filling pass over the whole
  /// active set and verify the class-aggregated, component-scoped engine
  /// produced the same allocation (throws std::logic_error on divergence).
  /// Also checks the class and group bookkeeping and the flow slab: every
  /// member of every live group points back at its group, groups are
  /// non-empty, class multiplicities match their members, the slab holds
  /// exactly active_flow_count() live flows, and no free slot is live.
  /// Costs a full pass per recompute — for tests only.
  void set_fair_share_cross_check(bool on) { cross_check_ = on; }

  // --- observability -------------------------------------------------------
  Stats stats() const;
  /// Flows in flight (fair share) or holding their links (exclusive FIFO).
  int active_flow_count() const { return live_flows_; }
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

  /// A contended path, inline: at most node-up, rack-up, rack-down and
  /// node-down. Also the key that maps a path to its flow class.
  struct Path {
    static constexpr int kMaxLinks = 4;
    std::array<int, kMaxLinks> link{};
    int size = 0;

    const int* begin() const { return link.data(); }
    const int* end() const { return link.data() + size; }
    bool empty() const { return size == 0; }
    int operator[](int i) const { return link[static_cast<std::size_t>(i)]; }
    void push_back(int l) { link[static_cast<std::size_t>(size++)] = l; }
    bool operator==(const Path& o) const {
      return size == o.size && std::equal(begin(), end(), o.begin());
    }
  };

  struct PathHash {
    std::size_t operator()(const Path& p) const {
      std::size_t h = 1469598103934665603ull;
      for (int v : p) {
        h ^= static_cast<std::size_t>(static_cast<unsigned>(v));
        h *= 1099511628211ull;
      }
      return h;
    }
  };

  enum class FlowState : std::uint8_t {
    kFree,         ///< on free_slots_
    kUncontended,  ///< zero-delay delivery queued; not cancellable
    kPending,      ///< kExclusiveFifo: queued on fifo_pending_
    kLive,         ///< in flight, a member of live group `live`
    kFinishing,    ///< in the completion batch being delivered
    kSuppressed,   ///< cancelled inside that batch; never delivered
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// One flow-slab cell. `gen` is bumped each time the slot is freed, so a
  /// FlowId minted for an earlier occupant never matches again.
  struct FlowSlot {
    sim::SmallFn done;
    Path path;
    util::Bytes size = 0.0;
    std::uint64_t seq = 0;       ///< start order; orders completion batches
    sim::EventId completion{};   ///< kExclusiveFifo: armed completion event
    std::uint32_t gen = 1;
    /// Next member of the same live group, or of the same uncontended
    /// delivery event; kNoSlot ends the list.
    std::uint32_t next = kNoSlot;
    int live = -1;               ///< index of its group in the live arrays
    FlowState state = FlowState::kFree;
  };

  /// One equivalence class of fair-share flows: every flow with this
  /// contended path. Max–min gives them all the same rate, so the class
  /// carries one rate and a multiplicity; water-filling runs over classes.
  struct FlowClass {
    Path links;                 ///< the shared contended path
    /// This class's slot in link_classes_[links[i]].
    std::array<int, Path::kMaxLinks> link_pos{};
    int count = 0;              ///< member flows
    int join_live = -1;         ///< live index of its newest group, or -1
    double rate = 0.0;          ///< bytes/sec per member flow
    double wf_rate = 0.0;       ///< water-filling scratch (unfrozen marker)
    util::Epoch::Ticket visit = 0;  ///< flood-fill epoch mark
  };

  Path contended_path(NodeId src, NodeId dst) const;

  // Flow slab.
  static FlowId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<FlowId>(slot) << 32) | gen;
  }
  std::uint32_t allocate_slot();
  void release_slot(std::uint32_t slot);
  /// Append a group of one to the live arrays (state becomes kLive).
  void live_insert(std::uint32_t slot, util::Bytes remaining, int cls);
  /// Add the slot to live group `i` (state becomes kLive).
  void live_join(std::uint32_t slot, int i);
  /// Take one member out of its live group, removing the group once empty.
  /// Walks the member list from the head, so it costs O(group size); a
  /// group is the same-size flows of one class started at one instant (in
  /// a shuffle, reducers per rack × maps finishing then), and cancels of
  /// members deep in large groups are rare (docs/performance.md).
  void live_unlink(std::uint32_t slot);
  /// Swap-remove live group `i`, patching the moved group's back-references
  /// (O(its size)).
  /// Its members' own `live` and `next` are the caller's to reset.
  void live_remove(std::size_t i);
  /// Free the slot, count the flow completed and run its callback.
  void deliver(std::uint32_t slot);
  /// Deliver the uncontended flows chained from `head`, in start order.
  void deliver_uncontended(std::uint32_t head);

  // Fair-share model.
  void fair_share_add(std::uint32_t slot);
  void fair_share_advance();
  /// Find or create the class for `path`; returns its index.
  int fair_share_class_for(const Path& path);
  /// Drop one member from class `cid`, destroying the class at zero.
  void fair_share_leave_class(int cid);
  /// Mark the path's links dirty and ensure one zero-delay recompute event
  /// is queued; also disarms the stale completion horizon (the recompute
  /// re-arms from fresh rates, exactly like the old per-op re-arm did).
  void fair_share_mark_dirty(const Path& links);
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
  /// Naive per-flow water-filling over `flows`, every live flow's slot (the
  /// reference the optimized engine must agree with); writes one rate per
  /// entry of `flows` into `out`.
  void fair_share_naive_rates(const std::vector<std::uint32_t>& flows,
                              std::vector<double>& out);
  void fair_share_cross_check();

  // Exclusive-FIFO model.
  void fifo_try_start_pending();
  void fifo_complete(std::uint32_t slot);

  void mark_links_active(const Path& links, int delta);

  // Topology link layout: [0, 2N) node up/down, [2N, 2N+2R) rack up/down.
  // link_index_ maps these to indices into links_.
  int node_up_link(NodeId n) const { return 2 * n; }
  int node_down_link(NodeId n) const { return 2 * n + 1; }
  int rack_up_link(RackId r) const { return 2 * topology_.num_nodes() + 2 * r; }
  int rack_down_link(RackId r) const {
    return 2 * topology_.num_nodes() + 2 * r + 1;
  }

  sim::Simulator& sim_;
  const Topology& topology_;
  ContentionModel model_;
  std::vector<Link> links_;       ///< limited links only
  std::vector<int> link_index_;   ///< topology link -> links_ index, or -1

  // Flow slab: every started, undelivered flow holds a slot.
  std::vector<FlowSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Live groups (fair-share in flight, or FIFO holding its links; a FIFO
  // flow is always a group of one), dense and in no particular order.
  // live_head_[i] is the first member of group i, the rest follow `next`.
  std::vector<std::uint32_t> live_head_;
  std::vector<util::Bytes> live_remaining_;  ///< residual bytes per member
  std::vector<int> live_cls_;                ///< fair-share class per group
  int live_flows_ = 0;                       ///< members of all live groups
  std::deque<std::uint32_t> fifo_pending_;  ///< kExclusiveFifo wait queue

  // The uncontended delivery event transfers may still join: its first and
  // last flow, and the kernel's events_scheduled() right after it was
  // scheduled. open_head_ is kNoSlot once that event has fired.
  std::uint32_t open_head_ = kNoSlot;
  std::uint32_t open_tail_ = kNoSlot;
  std::uint64_t open_mark_ = 0;

  // Fair-share bookkeeping.
  util::Seconds last_advance_ = 0.0;
  sim::EventId next_completion_{};

  // Flow classes and the class/link sharing graph.
  std::vector<FlowClass> classes_;  ///< slab; free slots on free_classes_
  std::vector<int> free_classes_;
  std::unordered_map<Path, int, PathHash> class_by_path_;
  /// Per link: (class index, slot of this link in that class's `links`).
  /// The back-reference keeps swap-removal O(1) on class destruction.
  std::vector<std::vector<std::pair<int, int>>> link_classes_;

  // Dirty set between coalesced recomputes.
  std::vector<int> dirty_links_;
  std::vector<char> link_dirty_;
  bool recompute_scheduled_ = false;

  // The completion batch being collected and delivered, as (start order,
  // slot, class) triples sorted by start order. Its undelivered flows are
  // kFinishing, so cancel() of one (a hedged read cancelling a loser that
  // finished in the winner's timestamp batch) marks it kSuppressed instead
  // of failing.
  std::vector<std::tuple<std::uint64_t, std::uint32_t, int>> batch_;

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
  std::vector<std::vector<int>> scratch_link_flows_;  ///< naive pass only

  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_cancelled_ = 0;
  std::uint64_t fast_paths_ = 0;
  std::uint64_t full_recomputes_ = 0;
  std::uint64_t batched_recomputes_ = 0;
  std::uint64_t component_recomputes_ = 0;
  std::uint64_t live_groups_started_ = 0;
  std::uint64_t delivery_events_ = 0;
  std::uint64_t waterfill_subtractions_ = 0;
  bool cross_check_ = false;
  util::Bytes bytes_delivered_ = 0.0;
};

/// Append the Stats counters to an open JSONL record, in the canonical field
/// order shared by every tool that reports network statistics. The caller
/// owns begin()/end() and any leading fields (e.g. dfsim's per-seed tag).
void append_net_stats(util::JsonlWriter& w, const Network::Stats& s);

}  // namespace dfs::net
