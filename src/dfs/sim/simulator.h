#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "dfs/sim/small_fn.h"
#include "dfs/util/units.h"

namespace dfs::sim {

/// Handle to a scheduled event; lets the owner cancel it before it fires.
///
/// Encodes a slab slot index plus a per-slot generation tag, so a handle to
/// an event that already fired (or whose slot was recycled for a newer
/// event) is detected in O(1) without any lookup table.
struct EventId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
};

/// Discrete-event simulation kernel.
///
/// This is the substrate the paper built on CSIM20: a clock plus an event
/// queue. Components schedule closures at absolute or relative simulated
/// times; `run()` drains the queue in time order. Ties are broken by
/// scheduling order (FIFO), which keeps runs fully deterministic for a given
/// seed — a property the simulation experiments and tests depend on.
///
/// One-shot events live in a slab of generation-tagged slots: scheduling an
/// event whose closure fits SmallFn's inline buffer performs no heap
/// allocation, and firing or cancelling one is a direct indexed access.
///
/// Pending events are ordered by (time, seq) across three kinds of queue.
/// Each queue is already in that order, so `run()` dispatches the least of
/// their fronts:
/// - a binary heap for events at arbitrary future times;
/// - the now-lane, a FIFO ring of events scheduled for `now()` (every entry
///   carries the time it was pushed at, and the clock never goes back);
/// - one FIFO ring per distinct periodic period, holding each periodic
///   timer's next tick. A tick fired at `now` re-arms at `now + period`,
///   and that sum is monotone in `now`, so the ring stays sorted.
///
/// A periodic timer's callback stays in its timer cell for the timer's
/// whole life: a tick copies nothing and allocates nothing. Every ring holds
/// at most as many entries as are pending in it, so its storage is bounded
/// by the live timers (period lanes) or the largest same-instant burst (the
/// now-lane). See docs/performance.md for the exactness argument.
class Simulator {
 public:
  using Callback = SmallFn;

  /// Current simulated time in seconds.
  util::Seconds now() const { return now_; }

  /// Schedule `cb` to run `delay >= 0` seconds from now.
  EventId schedule_in(util::Seconds delay, Callback cb);

  /// Schedule `cb` at absolute time `at >= now()`.
  EventId schedule_at(util::Seconds at, Callback cb);

  /// Schedule `cb` at the current timestamp, behind every event already
  /// queued there (the FIFO tie-break orders it last). This is the
  /// coalescing hook batched consumers build on: N same-timestamp mutations
  /// schedule one zero-delay pass that observes all of them — see the
  /// fair-share recompute batching in net::Network.
  EventId schedule_now(Callback cb) { return schedule_in(0.0, std::move(cb)); }

  /// Cancel a pending event. Returns false if it already fired or was
  /// cancelled (safe to call either way).
  bool cancel(EventId id);

  /// Schedule `cb` every `period` seconds starting at now()+phase, until
  /// `cb` returns false or the simulation ends. Each firing re-arms at its
  /// own time plus `period` and takes a sequence number after every event
  /// `cb` scheduled, exactly as if `cb` ended with `schedule_in(period, …)`.
  void schedule_periodic(util::Seconds phase, util::Seconds period,
                         std::function<bool()> cb);

  /// Run until the event queue is empty, or until simulated time would pass
  /// `until` (default: run to completion). Returns the final time.
  util::Seconds run(util::Seconds until = -1.0);

  /// Drop all pending events and stop every periodic timer. Called from a
  /// periodic callback, that timer stops too once the callback returns.
  void clear();

  /// Number of events executed so far (for microbenchmarks / sanity checks).
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending, each periodic timer's next tick
  /// included. Exact: cancellation releases the slot immediately, so
  /// cancelled events never inflate the count (stale queue entries are
  /// skipped on pop and were already uncounted).
  std::size_t events_pending() const { return pending_; }

  /// Number of events scheduled so far, cancelled or not; each periodic
  /// re-arm counts as one. An unchanged count means the last event
  /// scheduled is still the most recent one: nothing has been queued behind
  /// it (net::Network's shared uncontended deliveries rely on this).
  std::uint64_t events_scheduled() const { return next_seq_ - 1; }

  /// Entries the FIFO lanes' rings can hold without growing (a storage
  /// diagnostic for tests and benchmarks).
  std::size_t lane_capacity() const;

 private:
  /// A queue entry, 24 bytes. `gen == 0` marks a periodic tick, with `slot`
  /// the timer index; slab generations are never 0.
  struct Event {
    util::Seconds time;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// FIFO ring of events in (time, seq) order; the capacity is a power of
  /// two and doubles only when the ring is full.
  class Ring {
   public:
    bool empty() const { return size_ == 0; }
    const Event& front() const { return buf_[head_]; }
    const Event& back() const { return buf_[(head_ + size_ - 1) & mask()]; }
    void pop_front() {
      head_ = (head_ + 1) & mask();
      --size_;
    }
    void push_back(const Event& ev);
    void clear() { head_ = size_ = 0; }
    std::size_t capacity() const { return buf_.size(); }

   private:
    std::size_t mask() const { return buf_.size() - 1; }
    std::vector<Event> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  struct PeriodLane {
    util::Seconds period;
    Ring ring;
  };

  /// One slab cell. `gen` is bumped every time the slot is released, so an
  /// EventId minted for an earlier occupancy can never match again; a queue
  /// may keep a stale Event for a cancelled id, which pop simply skips.
  struct Slot {
    SmallFn fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kOccupied;
  };
  /// One periodic timer: its callback and the lane its ticks re-arm into.
  struct Timer {
    std::function<bool()> fn;
    std::uint32_t lane = 0;
    std::uint32_t next_free = kOccupied;
  };
  static constexpr std::uint32_t kOccupied = 0xffffffffu;
  static constexpr std::uint32_t kFreeListEnd = 0xfffffffeu;

  std::uint32_t allocate_slot(Callback cb);
  void release_slot(std::uint32_t index);
  void release_timer(std::uint32_t index);
  /// Append `ev` to `ring`, or to the heap if that would break the ring's
  /// order (only possible after `run(until)` moved the clock back).
  void push(Ring& ring, const Event& ev);
  /// Queue a new event: the now-lane if it is due now, else the heap.
  void enqueue(const Event& ev);
  void fire_tick(const Event& ev);

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return EventId{(static_cast<std::uint64_t>(slot) << 32) | gen};
  }

  util::Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  Ring now_lane_;
  std::vector<PeriodLane> lanes_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kFreeListEnd;
  /// Periodic timers; a deque so a callback that starts another timer does
  /// not move its own cell while it runs.
  std::deque<Timer> timers_;
  std::uint32_t timer_free_ = kFreeListEnd;
  /// The timer whose callback is running, and whether clear() ran inside it.
  std::uint32_t firing_ = kFreeListEnd;
  bool firing_cleared_ = false;
};

}  // namespace dfs::sim
