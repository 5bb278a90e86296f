#include "dfs/net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "dfs/util/jsonl.h"

namespace dfs::net {

namespace {
// Flows whose residual drops below this many bytes are considered finished;
// absorbs floating-point drift from repeated rate recomputations. Real block
// and shuffle transfers are kilobytes to megabytes, so half a byte is noise.
constexpr util::Bytes kFinishEpsilon = 0.5;

// Lower bound on the time to the next completion event. Without it, a flow
// whose residual is epsilon-small can yield a horizon below the floating-
// point ULP of the current simulated time; now + horizon == now then loops
// the event queue forever at a frozen timestamp. One nanosecond of simulated
// time is far below anything the model measures and guarantees progress.
constexpr util::Seconds kMinHorizon = 1e-9;
}  // namespace

Network::Network(sim::Simulator& simulator, const Topology& topology,
                 const LinkConfig& links, ContentionModel model)
    : sim_(simulator), topology_(topology), model_(model) {
  // Only limited links get an index and per-link state, numbered in
  // topology order; unlimited ones never contend and drop out of every path.
  // Under the default LinkConfig that leaves the rack links and skips the
  // 2 x nodes node links.
  link_index_.assign(
      2 * static_cast<std::size_t>(topology_.num_nodes() +
                                   topology_.num_racks()),
      -1);
  const auto add = [this](int topo_link, util::BytesPerSec capacity) {
    if (capacity == util::kUnlimitedBandwidth) return;
    link_index_[static_cast<std::size_t>(topo_link)] =
        static_cast<int>(links_.size());
    links_.push_back(Link{capacity});
  };
  for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
    add(node_up_link(n), links.node_up);
    add(node_down_link(n), links.node_down);
  }
  for (RackId r = 0; r < topology_.num_racks(); ++r) {
    add(rack_up_link(r), links.rack_up);
    add(rack_down_link(r), links.rack_down);
  }
  // All per-link side tables are sized once here. The water-filling scratch
  // maintains the invariant that every seeded count returns to zero, so
  // recomputes never pay an O(links) clear; the flood-fill marks are
  // versioned by visit_epoch_ for the same reason.
  link_classes_.resize(links_.size());
  link_dirty_.assign(links_.size(), 0);
  link_visit_.assign(links_.size(), 0);
  scratch_residual_.assign(links_.size(), 0.0);
  scratch_count_.assign(links_.size(), 0);
  scratch_link_flows_.resize(links_.size());
}

Network::Path Network::contended_path(NodeId src, NodeId dst) const {
  Path path;
  if (src == dst) return path;
  auto add_if_limited = [&](int topo_link) {
    const int link = link_index_[static_cast<std::size_t>(topo_link)];
    if (link >= 0) path.push_back(link);
  };
  add_if_limited(node_up_link(src));
  if (!topology_.same_rack(src, dst)) {
    add_if_limited(rack_up_link(topology_.rack_of(src)));
    add_if_limited(rack_down_link(topology_.rack_of(dst)));
  }
  add_if_limited(node_down_link(dst));
  return path;
}

util::Seconds Network::isolated_transfer_time(NodeId src, NodeId dst,
                                              util::Bytes size) const {
  util::BytesPerSec bottleneck = std::numeric_limits<double>::infinity();
  for (int link : contended_path(src, dst)) {
    bottleneck =
        std::min(bottleneck, links_[static_cast<std::size_t>(link)].capacity);
  }
  if (bottleneck == std::numeric_limits<double>::infinity()) return 0.0;
  return size / bottleneck;
}

FlowId Network::transfer(NodeId src, NodeId dst, util::Bytes size,
                         sim::SmallFn done) {
  assert(size >= 0.0);
  const std::uint32_t slot = allocate_slot();
  FlowSlot& f = slots_[slot];
  f.done = std::move(done);
  f.path = contended_path(src, dst);
  f.size = size;
  f.seq = flows_started_++;
  const FlowId id = make_id(slot, f.gen);

  if (f.path.empty() || size <= kFinishEpsilon) {
    // Uncontended (same node, or all segments unlimited): deliver on the
    // next dispatch so callers never observe re-entrant completion. While
    // the open delivery event is still the last one scheduled, nothing can
    // run between it and a new event of this flow, so joining it is exact.
    // It has not fired (that resets open_head_), so only Simulator::clear()
    // can have dropped it, and then nothing at all is pending.
    f.state = FlowState::kUncontended;
    f.next = kNoSlot;
    if (open_head_ != kNoSlot && sim_.events_scheduled() == open_mark_ &&
        sim_.events_pending() > 0) {
      slots_[open_tail_].next = slot;
      open_tail_ = slot;
      return id;
    }
    open_head_ = open_tail_ = slot;
    sim_.schedule_now([this, slot] { deliver_uncontended(slot); });
    open_mark_ = sim_.events_scheduled();
    ++delivery_events_;
    return id;
  }

  if (model_ == ContentionModel::kMaxMinFairShare) {
    fair_share_add(slot);
  } else {
    f.state = FlowState::kPending;
    fifo_pending_.push_back(slot);
    fifo_try_start_pending();
  }
  return id;
}

bool Network::cancel(FlowId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  FlowSlot& f = slots_[slot];
  if (f.gen != static_cast<std::uint32_t>(id)) return false;  // stale
  switch (f.state) {
    case FlowState::kFree:
    case FlowState::kUncontended:
    case FlowState::kSuppressed:
      return false;
    case FlowState::kFinishing:
      // Cancel-after-completion inside the current batch: the flow left the
      // live set when the batch was collected, but its callback has not
      // fired yet — suppress it and count the flow cancelled. Flows already
      // delivered freed their slots, so their handles are stale by now.
      f.state = FlowState::kSuppressed;
      ++flows_cancelled_;
      return true;
    case FlowState::kPending:
      // Not started yet (FIFO queue): just drop it.
      fifo_pending_.erase(
          std::find(fifo_pending_.begin(), fifo_pending_.end(), slot));
      ++flows_cancelled_;
      release_slot(slot);
      return true;
    case FlowState::kLive:
      break;
  }
  const Path path = f.path;
  if (model_ == ContentionModel::kMaxMinFairShare) {
    fair_share_advance();
    const int cls = live_cls_[static_cast<std::size_t>(f.live)];
    live_unlink(slot);
    release_slot(slot);
    mark_links_active(path, -1);
    ++flows_cancelled_;
    fair_share_leave_class(cls);
    fair_share_mark_dirty(path);
  } else {
    sim_.cancel(f.completion);
    live_unlink(slot);
    release_slot(slot);
    for (int link : path) {
      links_[static_cast<std::size_t>(link)].held = false;
    }
    mark_links_active(path, -1);
    ++flows_cancelled_;
    fifo_try_start_pending();
  }
  return true;
}

std::uint32_t Network::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Network::release_slot(std::uint32_t slot) {
  FlowSlot& f = slots_[slot];
  assert(f.state != FlowState::kFree && f.live < 0);
  f.done.reset();
  f.state = FlowState::kFree;
  if (++f.gen == 0) f.gen = 1;  // keep FlowId != 0
  free_slots_.push_back(slot);
}

void Network::live_insert(std::uint32_t slot, util::Bytes remaining, int cls) {
  FlowSlot& f = slots_[slot];
  f.state = FlowState::kLive;
  f.live = static_cast<int>(live_head_.size());
  f.next = kNoSlot;
  live_head_.push_back(slot);
  live_remaining_.push_back(remaining);
  live_cls_.push_back(cls);
  ++live_flows_;
}

void Network::live_join(std::uint32_t slot, int i) {
  FlowSlot& f = slots_[slot];
  const auto g = static_cast<std::size_t>(i);
  f.state = FlowState::kLive;
  f.live = i;
  f.next = live_head_[g];
  live_head_[g] = slot;
  ++live_flows_;
}

void Network::live_unlink(std::uint32_t slot) {
  FlowSlot& f = slots_[slot];
  const auto i = static_cast<std::size_t>(f.live);
  std::uint32_t* link = &live_head_[i];
  while (*link != slot) link = &slots_[*link].next;
  *link = f.next;
  f.next = kNoSlot;
  f.live = -1;
  --live_flows_;
  if (live_head_[i] == kNoSlot) live_remove(i);
}

void Network::live_remove(std::size_t i) {
  const auto forget = [this](std::size_t g, int now_at) {
    const int cls = live_cls_[g];
    if (cls < 0) return;  // kExclusiveFifo: no classes
    int& join = classes_[static_cast<std::size_t>(cls)].join_live;
    if (join == static_cast<int>(g)) join = now_at;
  };
  forget(i, -1);
  const std::size_t last = live_head_.size() - 1;
  if (i != last) {
    forget(last, static_cast<int>(i));
    live_head_[i] = live_head_[last];
    live_remaining_[i] = live_remaining_[last];
    live_cls_[i] = live_cls_[last];
    for (std::uint32_t s = live_head_[i]; s != kNoSlot; s = slots_[s].next) {
      slots_[s].live = static_cast<int>(i);
    }
  }
  live_head_.pop_back();
  live_remaining_.pop_back();
  live_cls_.pop_back();
}

void Network::deliver(std::uint32_t slot) {
  // Free the slot before the callback runs: the callback may start flows
  // (growing slots_) or cancel this flow's now-stale handle.
  sim::SmallFn done = std::move(slots_[slot].done);
  const util::Bytes size = slots_[slot].size;
  release_slot(slot);
  ++flows_completed_;
  bytes_delivered_ += size;
  if (done) done();
}

void Network::deliver_uncontended(std::uint32_t head) {
  if (head == open_head_) open_head_ = kNoSlot;  // fired: no more joins
  for (std::uint32_t slot = head; slot != kNoSlot;) {
    // Read the link first: delivery frees the slot. Later members stay
    // allocated until their turn, so callbacks never recycle them.
    const std::uint32_t next = slots_[slot].next;
    deliver(slot);
    slot = next;
  }
}

void Network::mark_links_active(const Path& links, int delta) {
  for (int link : links) {
    Link& l = links_[static_cast<std::size_t>(link)];
    if (delta > 0 && l.active_flows == 0) l.busy_since = sim_.now();
    l.active_flows += delta;
    assert(l.active_flows >= 0);
    if (delta < 0 && l.active_flows == 0) {
      l.busy_total += sim_.now() - l.busy_since;
    }
  }
}

util::Seconds Network::rack_down_busy_time(RackId r) const {
  const int link = link_index_[static_cast<std::size_t>(rack_down_link(r))];
  if (link < 0) return 0.0;  // unlimited: never carries a contended flow
  const Link& l = links_[static_cast<std::size_t>(link)];
  util::Seconds total = l.busy_total;
  if (l.active_flows > 0) total += sim_.now() - l.busy_since;
  return total;
}

Network::Stats Network::stats() const {
  Stats s;
  s.flows_started = flows_started_;
  s.flows_completed = flows_completed_;
  s.flows_cancelled = flows_cancelled_;
  s.fast_paths = fast_paths_;
  s.full_recomputes = full_recomputes_;
  s.batched_recomputes = batched_recomputes_;
  s.component_recomputes = component_recomputes_;
  s.classes_active = static_cast<int>(class_by_path_.size());
  s.bytes_delivered = bytes_delivered_;
  s.live_groups_started = live_groups_started_;
  s.delivery_events = delivery_events_;
  s.waterfill_subtractions = waterfill_subtractions_;
  return s;
}

// --- max-min fair share ------------------------------------------------------
//
// Rates change only inside fair_share_batched_recompute(), the single
// zero-delay event every mutation coalesces into. Flow residuals, link busy
// accounting, and the active set itself are still updated eagerly at each
// mutation, so nothing observable depends on when (within the timestamp) the
// recompute runs — and since the simulator's FIFO tie-break runs the
// recompute after every already-queued event at the same timestamp, no
// simulated time ever passes under stale rates.

void Network::fair_share_add(std::uint32_t slot) {
  fair_share_advance();
  const Path& path = slots_[slot].path;
  const util::Bytes size = slots_[slot].size;
  mark_links_active(path, +1);
  const int cls = fair_share_class_for(path);
  FlowClass& c = classes_[static_cast<std::size_t>(cls)];
  ++c.count;
  // Same class, same residual bits: the two take the same rate and the
  // same floating-point steps from here on, so one live entry serves both.
  if (c.join_live >= 0 &&
      live_remaining_[static_cast<std::size_t>(c.join_live)] == size) {
    live_join(slot, c.join_live);
  } else {
    c.join_live = static_cast<int>(live_head_.size());
    live_insert(slot, size, cls);
    ++live_groups_started_;
  }
  fair_share_mark_dirty(path);
}

int Network::fair_share_class_for(const Path& path) {
  const auto found = class_by_path_.find(path);
  if (found != class_by_path_.end()) return found->second;
  int cid;
  if (!free_classes_.empty()) {
    cid = free_classes_.back();
    free_classes_.pop_back();
  } else {
    cid = static_cast<int>(classes_.size());
    classes_.emplace_back();
  }
  FlowClass& c = classes_[static_cast<std::size_t>(cid)];
  c.links = path;
  c.count = 0;
  c.join_live = -1;
  c.rate = 0.0;
  for (int s = 0; s < path.size; ++s) {
    auto& lc = link_classes_[static_cast<std::size_t>(path[s])];
    c.link_pos[static_cast<std::size_t>(s)] = static_cast<int>(lc.size());
    lc.emplace_back(cid, s);
  }
  class_by_path_.emplace(path, cid);
  return cid;
}

void Network::fair_share_leave_class(int cid) {
  FlowClass& c = classes_[static_cast<std::size_t>(cid)];
  assert(c.count > 0);
  if (--c.count > 0) return;
  // Last member gone: unlink the class from every link's membership list
  // (swap-removal; the back-reference in the moved entry is patched) and
  // recycle the slot.
  for (int s = 0; s < c.links.size; ++s) {
    auto& lc = link_classes_[static_cast<std::size_t>(c.links[s])];
    const auto pos =
        static_cast<std::size_t>(c.link_pos[static_cast<std::size_t>(s)]);
    const std::pair<int, int> moved = lc.back();
    lc[pos] = moved;
    lc.pop_back();
    if (pos < lc.size()) {
      classes_[static_cast<std::size_t>(moved.first)]
          .link_pos[static_cast<std::size_t>(moved.second)] =
          static_cast<int>(pos);
    }
  }
  class_by_path_.erase(c.links);
  free_classes_.push_back(cid);
}

void Network::fair_share_mark_dirty(const Path& links) {
  for (const int l : links) {
    if (!link_dirty_[static_cast<std::size_t>(l)]) {
      link_dirty_[static_cast<std::size_t>(l)] = 1;
      dirty_links_.push_back(l);
    }
  }
  // The armed completion horizon was computed from the pre-change rates;
  // disarm it and let the batched recompute re-arm from fresh ones (exactly
  // what the old per-mutation recompute did with its cancel-and-rearm). The
  // recompute runs at the current timestamp, so no time passes in between.
  if (next_completion_.valid()) {
    sim_.cancel(next_completion_);
    next_completion_ = {};
  }
  if (!recompute_scheduled_) {
    recompute_scheduled_ = true;
    sim_.schedule_now([this] { fair_share_batched_recompute(); });
  }
}

void Network::fair_share_advance() {
  const util::Seconds now = sim_.now();
  const util::Seconds dt = now - last_advance_;
  if (dt > 0.0) {
    for (std::size_t i = 0; i < live_remaining_.size(); ++i) {
      live_remaining_[i] = std::max(
          0.0, live_remaining_[i] -
                   classes_[static_cast<std::size_t>(live_cls_[i])].rate * dt);
    }
  }
  last_advance_ = now;
}

void Network::fair_share_batched_recompute() {
  recompute_scheduled_ = false;
  ++batched_recomputes_;
  fair_share_advance();
  // Flood-fill the class/link sharing graph from every dirty link; each
  // fill is one connected component, water-filled in isolation (max–min
  // allocations decompose over components, so everyone outside keeps their
  // rate). A dirty link with no classes left is the old idle-removal case:
  // its departures shared nothing with any survivor.
  const util::Epoch::Ticket epoch = visit_epoch_.bump();
  comp_links_.clear();
  comp_classes_.clear();
  for (const int seed : dirty_links_) {
    link_dirty_[static_cast<std::size_t>(seed)] = 0;
    if (link_visit_[static_cast<std::size_t>(seed)] == epoch) continue;
    link_visit_[static_cast<std::size_t>(seed)] = epoch;
    if (link_classes_[static_cast<std::size_t>(seed)].empty()) continue;
    ComponentRange comp;
    comp.links_begin = comp_links_.size();
    comp.classes_begin = comp_classes_.size();
    comp_links_.push_back(seed);
    for (std::size_t qi = comp.links_begin; qi < comp_links_.size(); ++qi) {
      const auto l = static_cast<std::size_t>(comp_links_[qi]);
      for (const auto& entry : link_classes_[l]) {
        FlowClass& c = classes_[static_cast<std::size_t>(entry.first)];
        if (c.visit == epoch) continue;
        c.visit = epoch;
        comp_classes_.push_back(entry.first);
        for (const int l2 : c.links) {
          if (link_visit_[static_cast<std::size_t>(l2)] == epoch) continue;
          link_visit_[static_cast<std::size_t>(l2)] = epoch;
          comp_links_.push_back(l2);
        }
      }
    }
    comp.links_end = comp_links_.size();
    comp.classes_end = comp_classes_.size();
    if (comp.classes_end - comp.classes_begin == 1) {
      ++fast_paths_;
    } else {
      ++component_recomputes_;
    }
    fair_share_waterfill_component(comp);
  }
  dirty_links_.clear();
  if (cross_check_) fair_share_cross_check();
  fair_share_arm();
}

void Network::fair_share_waterfill_component(const ComponentRange& comp) {
  if (comp.classes_end - comp.classes_begin == 1) {
    // Single class: progressive filling would run exactly one round and
    // freeze it at its path bottleneck share. Computing that share directly
    // subsumes the old isolated-flow fast path and generalizes it to any
    // multiplicity.
    FlowClass& c =
        classes_[static_cast<std::size_t>(comp_classes_[comp.classes_begin])];
    double best = std::numeric_limits<double>::infinity();
    for (const int l : c.links) {
      const double share =
          std::max(0.0, links_[static_cast<std::size_t>(l)].capacity) /
          c.count;
      best = std::min(best, share);
    }
    c.rate = best;
    return;
  }
  // Progressive water-filling over classes: repeatedly saturate the link
  // with the lowest per-flow fair share and freeze the classes that cross
  // it at that share.
  for (std::size_t i = comp.links_begin; i < comp.links_end; ++i) {
    const int l = comp_links_[i];
    scratch_residual_[static_cast<std::size_t>(l)] =
        links_[static_cast<std::size_t>(l)].capacity;
    scratch_count_[static_cast<std::size_t>(l)] = 0;
  }
  long unfrozen = 0;
  for (std::size_t i = comp.classes_begin; i < comp.classes_end; ++i) {
    FlowClass& c = classes_[static_cast<std::size_t>(comp_classes_[i])];
    c.wf_rate = -1.0;  // unfrozen marker
    unfrozen += c.count;
    for (const int l : c.links) {
      scratch_count_[static_cast<std::size_t>(l)] += c.count;
    }
  }
  while (unfrozen > 0) {
    int bottleneck = -1;
    double best_share = std::numeric_limits<double>::infinity();
    for (std::size_t i = comp.links_begin; i < comp.links_end; ++i) {
      const auto l = static_cast<std::size_t>(comp_links_[i]);
      if (scratch_count_[l] <= 0) continue;
      const double share =
          std::max(0.0, scratch_residual_[l]) / scratch_count_[l];
      if (share < best_share) {
        best_share = share;
        bottleneck = comp_links_[i];
      }
    }
    assert(bottleneck >= 0 && "every class crosses at least one limited link");
    for (const auto& entry :
         link_classes_[static_cast<std::size_t>(bottleneck)]) {
      FlowClass& c = classes_[static_cast<std::size_t>(entry.first)];
      if (c.wf_rate >= 0.0) continue;  // already frozen via another link
      c.wf_rate = best_share;
      unfrozen -= c.count;
      for (const int link : c.links) {
        const auto l = static_cast<std::size_t>(link);
        // A link left with no unfrozen flows is skipped by every later
        // bottleneck search of this pass, so its residual is never read
        // again (every bottleneck link ends here).
        if ((scratch_count_[l] -= c.count) == 0) continue;
        // One subtraction per member flow, not one fused count*share
        // multiply: this replays the naive per-flow pass's floating-point
        // sequence exactly, keeping the aggregated engine bit-identical to
        // the reference (and to the pre-aggregation engine's outputs).
        double& r = scratch_residual_[l];
        for (int m = 0; m < c.count; ++m) r -= best_share;
        waterfill_subtractions_ += static_cast<std::uint64_t>(c.count);
      }
    }
  }
  for (std::size_t i = comp.classes_begin; i < comp.classes_end; ++i) {
    FlowClass& c = classes_[static_cast<std::size_t>(comp_classes_[i])];
    c.rate = c.wf_rate;
  }
}

void Network::fair_share_arm() {
  if (next_completion_.valid()) {
    sim_.cancel(next_completion_);
    next_completion_ = {};
  }
  if (live_head_.empty()) return;

  // Arm the next completion event. Flows frozen at a zero rate (possible
  // only through floating-point drift on a saturated link) simply wait for
  // the next recompute, when a competing flow's completion frees capacity.
  util::Seconds horizon = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < live_remaining_.size(); ++i) {
    const double rate = classes_[static_cast<std::size_t>(live_cls_[i])].rate;
    if (rate <= 0.0) continue;
    horizon = std::min(horizon, live_remaining_[i] / rate);
  }
  assert(horizon < std::numeric_limits<double>::infinity());
  next_completion_ = sim_.schedule_in(std::max(kMinHorizon, horizon),
                                      [this] { fair_share_on_completion(); });
}

void Network::fair_share_on_completion() {
  next_completion_ = {};
  fair_share_advance();
  batch_.clear();
  for (std::size_t i = 0; i < live_remaining_.size();) {
    if (live_remaining_[i] <= kFinishEpsilon) {
      for (std::uint32_t slot = live_head_[i]; slot != kNoSlot;) {
        FlowSlot& f = slots_[slot];
        batch_.emplace_back(f.seq, slot, live_cls_[i]);
        f.live = -1;
        slot = std::exchange(f.next, kNoSlot);
        --live_flows_;
      }
      live_remove(i);  // moves the last live group into i: look at i again
    } else {
      ++i;
    }
  }
  if (batch_.empty()) {
    // Nothing actually crossed the finish line (floating-point drift on the
    // horizon); re-arm from the unchanged rates and try again.
    fair_share_arm();
    return;
  }
  // Deliver in flow start order, matching the kernel's FIFO tie-break; the
  // live arrays are in swap-removal order and groups interleave.
  std::sort(batch_.begin(), batch_.end());
  for (const auto& [seq, slot, cls] : batch_) {
    slots_[slot].state = FlowState::kFinishing;
    mark_links_active(slots_[slot].path, -1);
  }
  for (const auto& [seq, slot, cls] : batch_) {
    fair_share_leave_class(cls);
  }
  // Mark dirty before the callbacks so their re-entrant transfers coalesce
  // into the same zero-delay recompute, which also performs the final
  // re-arm for this timestamp.
  for (const auto& [seq, slot, cls] : batch_) {
    fair_share_mark_dirty(slots_[slot].path);
  }
  // Deliver the batch. A callback may cancel() a later flow of this same
  // batch (hedged reads cancelling losers); cancel marks it kSuppressed and
  // the loop drops it — cancelled, not completed. Callbacks never re-enter
  // this function, so batch_ is stable while they run.
  for (const auto& [seq, slot, cls] : batch_) {
    if (slots_[slot].state == FlowState::kSuppressed) {
      release_slot(slot);
    } else {
      deliver(slot);
    }
  }
}

void Network::fair_share_naive_rates(const std::vector<std::uint32_t>& flows,
                                     std::vector<double>& out) {
  ++full_recomputes_;
  // The pre-aggregation engine's progressive water-filling, verbatim, over
  // individual flows: the reference every class/group/component/batching
  // decision is checked against. Scratch counts return to zero by
  // construction (one increment while seeding, one decrement when the flow
  // freezes), so the production component passes never see leftovers.
  out.assign(flows.size(), -1.0);  // unfrozen marker
  scratch_touched_.clear();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (int link : slots_[flows[i]].path) {
      const auto l = static_cast<std::size_t>(link);
      if (scratch_count_[l] == 0) {
        scratch_touched_.push_back(link);
        scratch_residual_[l] = links_[l].capacity;
        scratch_link_flows_[l].clear();
      }
      ++scratch_count_[l];
      scratch_link_flows_[l].push_back(static_cast<int>(i));
    }
  }
  std::size_t unfrozen = flows.size();
  while (unfrozen > 0) {
    int bottleneck = -1;
    double best_share = std::numeric_limits<double>::infinity();
    for (const int link : scratch_touched_) {
      const auto l = static_cast<std::size_t>(link);
      if (scratch_count_[l] <= 0) continue;
      const double share =
          std::max(0.0, scratch_residual_[l]) / scratch_count_[l];
      if (share < best_share) {
        best_share = share;
        bottleneck = link;
      }
    }
    assert(bottleneck >= 0 && "every flow crosses at least one limited link");
    for (const int i : scratch_link_flows_[static_cast<std::size_t>(bottleneck)]) {
      double& rate = out[static_cast<std::size_t>(i)];
      if (rate >= 0.0) continue;  // already frozen via another link
      rate = best_share;
      --unfrozen;
      for (int link : slots_[flows[static_cast<std::size_t>(i)]].path) {
        scratch_residual_[static_cast<std::size_t>(link)] -= best_share;
        --scratch_count_[static_cast<std::size_t>(link)];
      }
    }
  }
}

void Network::fair_share_cross_check() {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("fair-share cross check: " + what);
  };
  // Slab invariants: the slab holds exactly active_flow_count() live flows
  // and no free slot is live or indexed.
  std::size_t live_slots = 0;
  std::size_t free_slots = 0;
  for (const FlowSlot& f : slots_) {
    if (f.state == FlowState::kLive) ++live_slots;
    if (f.state == FlowState::kFree) {
      ++free_slots;
      if (f.live >= 0) fail("free slot is live");
    }
  }
  // Group invariants: every group is non-empty and each member points back
  // at its group; members per class add up to the class multiplicity.
  std::vector<std::uint32_t> flows;
  std::vector<int> flow_cls;
  std::vector<int> members(classes_.size(), 0);
  for (std::size_t i = 0; i < live_head_.size(); ++i) {
    if (live_head_[i] == kNoSlot) {
      fail("live group " + std::to_string(i) + " is empty");
    }
    for (std::uint32_t s = live_head_[i]; s != kNoSlot; s = slots_[s].next) {
      const FlowSlot& f = slots_[s];
      if (f.state != FlowState::kLive || f.live != static_cast<int>(i)) {
        fail("live group " + std::to_string(i) +
             " and its member's back-reference disagree");
      }
      flows.push_back(s);
      flow_cls.push_back(live_cls_[i]);
      ++members[static_cast<std::size_t>(live_cls_[i])];
    }
  }
  if (live_slots != flows.size() ||
      flows.size() != static_cast<std::size_t>(active_flow_count()) ||
      free_slots != free_slots_.size()) {
    fail("slab holds " + std::to_string(live_slots) + " live and " +
         std::to_string(free_slots) + " free slots, groups hold " +
         std::to_string(flows.size()) + ", expected " +
         std::to_string(active_flow_count()) + " and " +
         std::to_string(free_slots_.size()));
  }
  // Class invariants: every class is non-empty, its multiplicity counts its
  // members, and the group it offers to new flows is one of its own.
  for (const auto& [path, cid] : class_by_path_) {
    const FlowClass& c = classes_[static_cast<std::size_t>(cid)];
    if (c.count <= 0) fail("empty class survived");
    if (c.count != members[static_cast<std::size_t>(cid)]) {
      fail("class " + std::to_string(cid) + " counts " +
           std::to_string(c.count) + " members, its groups hold " +
           std::to_string(members[static_cast<std::size_t>(cid)]));
    }
    if (c.join_live >= 0 &&
        (static_cast<std::size_t>(c.join_live) >= live_head_.size() ||
         live_cls_[static_cast<std::size_t>(c.join_live)] != cid)) {
      fail("class " + std::to_string(cid) + " offers a foreign group");
    }
  }
  // Re-derive every flow's rate with the naive per-flow reference and
  // demand agreement (up to floating-point noise: the reference accumulates
  // link residuals in flow order rather than class order).
  std::vector<double> naive;
  fair_share_naive_rates(flows, naive);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double engine =
        classes_[static_cast<std::size_t>(flow_cls[i])].rate;
    const double full = naive[i];
    const double tol = 1e-9 * std::max(1.0, std::abs(full));
    if (std::abs(full - engine) > tol) {
      throw std::logic_error(
          "fair-share batched/aggregated engine diverged from the naive "
          "per-flow pass: flow " +
          std::to_string(make_id(flows[i], slots_[flows[i]].gen)) +
          " engine=" + std::to_string(engine) +
          " naive=" + std::to_string(full));
    }
  }
}

// --- exclusive FIFO (the paper's NodeTree hold model) -------------------------

void Network::fifo_try_start_pending() {
  for (auto it = fifo_pending_.begin(); it != fifo_pending_.end();) {
    const std::uint32_t slot = *it;
    const Path& path = slots_[slot].path;
    const bool all_free =
        std::all_of(path.begin(), path.end(), [this](int link) {
          return !links_[static_cast<std::size_t>(link)].held;
        });
    if (!all_free) {
      ++it;
      continue;
    }
    it = fifo_pending_.erase(it);
    for (int link : path) {
      links_[static_cast<std::size_t>(link)].held = true;
    }
    mark_links_active(path, +1);
    util::BytesPerSec bottleneck = std::numeric_limits<double>::infinity();
    for (int link : path) {
      bottleneck = std::min(
          bottleneck, links_[static_cast<std::size_t>(link)].capacity);
    }
    const util::Seconds duration = slots_[slot].size / bottleneck;
    live_insert(slot, slots_[slot].size, -1);
    slots_[slot].completion =
        sim_.schedule_in(duration, [this, slot] { fifo_complete(slot); });
  }
}

void Network::fifo_complete(std::uint32_t slot) {
  const Path path = slots_[slot].path;
  live_unlink(slot);
  for (int link : path) {
    links_[static_cast<std::size_t>(link)].held = false;
  }
  mark_links_active(path, -1);
  deliver(slot);
  fifo_try_start_pending();
}

void append_net_stats(util::JsonlWriter& w, const Network::Stats& s) {
  w.field("flows_started", s.flows_started)
      .field("flows_completed", s.flows_completed)
      .field("flows_cancelled", s.flows_cancelled)
      .field("fast_paths", s.fast_paths)
      .field("full_recomputes", s.full_recomputes)
      .field("batched_recomputes", s.batched_recomputes)
      .field("component_recomputes", s.component_recomputes)
      .field("classes_active", s.classes_active)
      .field("bytes_delivered", s.bytes_delivered);
}

}  // namespace dfs::net
