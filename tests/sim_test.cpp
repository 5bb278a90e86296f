#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "dfs/sim/simulator.h"
#include "dfs/util/rng.h"

namespace dfs::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(3.0, [&] { order.push_back(3); });
  sim.schedule_in(1.0, [&] { order.push_back(1); });
  sim.schedule_in(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_in(5.0, [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NowAdvancesDuringCallbacks) {
  Simulator sim;
  double seen = -1;
  sim.schedule_in(2.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(Simulator, NestedSchedulingFromCallback) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(1.5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.5);
}

TEST(Simulator, ZeroDelayRunsAtSameTime) {
  Simulator sim;
  bool ran = false;
  sim.schedule_in(1.0, [&] {
    sim.schedule_in(0.0, [&] {
      ran = true;
      EXPECT_DOUBLE_EQ(sim.now(), 1.0);
    });
  });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_in(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_in(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(5.0, [&] { ++fired; });
  sim.run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PeriodicStopsWhenCallbackReturnsFalse) {
  Simulator sim;
  int count = 0;
  sim.schedule_periodic(0.5, 1.0, [&] {
    ++count;
    return count < 4;
  });
  sim.run();
  EXPECT_EQ(count, 4);
  EXPECT_DOUBLE_EQ(sim.now(), 3.5);
}

TEST(Simulator, PeriodicPhaseOffset) {
  Simulator sim;
  std::vector<double> fires;
  sim.schedule_periodic(2.0, 3.0, [&] {
    fires.push_back(sim.now());
    return fires.size() < 3;
  });
  sim.run();
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_DOUBLE_EQ(fires[0], 2.0);
  EXPECT_DOUBLE_EQ(fires[1], 5.0);
  EXPECT_DOUBLE_EQ(fires[2], 8.0);
}

TEST(Simulator, EventsExecutedCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_in(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, ClearDropsPending) {
  Simulator sim;
  bool ran = false;
  sim.schedule_in(1.0, [&] { ran = true; });
  sim.clear();
  sim.run();
  EXPECT_FALSE(ran);
}

// --- slab kernel: exact pending counts and generation-tagged handles --------

TEST(Simulator, EventsPendingExactAcrossCancelAndRun) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(sim.schedule_in(i + 1.0, [] {}));
  EXPECT_EQ(sim.events_pending(), 6u);
  EXPECT_TRUE(sim.cancel(ids[1]));
  EXPECT_TRUE(sim.cancel(ids[4]));
  // Exact count, not heap size: the two cancelled entries are gone.
  EXPECT_EQ(sim.events_pending(), 4u);
  sim.run(3.5);  // fires t=1 and t=3 (t=2 was cancelled)
  EXPECT_EQ(sim.events_pending(), 2u);
  EXPECT_EQ(sim.events_executed(), 2u);
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 4u);
}

TEST(Simulator, EventsPendingZeroAfterClear) {
  Simulator sim;
  for (int i = 0; i < 4; ++i) sim.schedule_in(1.0, [] {});
  sim.clear();
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, EventsScheduledCountsEveryScheduleCall) {
  Simulator sim;
  EXPECT_EQ(sim.events_scheduled(), 0u);
  const EventId a = sim.schedule_in(1.0, [] {});
  sim.schedule_now([] {});
  EXPECT_EQ(sim.events_scheduled(), 2u);
  // Cancelling and running events leave the count alone; only new events
  // move it, including ones scheduled from inside a callback.
  sim.cancel(a);
  EXPECT_EQ(sim.events_scheduled(), 2u);
  sim.schedule_in(2.0, [&sim] { sim.schedule_now([] {}); });
  sim.run();
  EXPECT_EQ(sim.events_scheduled(), 4u);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, StaleHandleDoesNotCancelReusedSlot) {
  Simulator sim;
  const EventId a = sim.schedule_in(1.0, [] {});
  ASSERT_TRUE(sim.cancel(a));
  // b reuses a's freed slot under a bumped generation; the stale handle to
  // a must not reach it.
  bool b_ran = false;
  const EventId b = sim.schedule_in(2.0, [&] { b_ran = true; });
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run();
  EXPECT_TRUE(b_ran);
  EXPECT_FALSE(sim.cancel(b));          // already fired
  EXPECT_FALSE(sim.cancel(EventId{}));  // null handle
}

TEST(Simulator, SlotReuseKeepsFifoOrderAmongSameTimeEvents) {
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.schedule_in(5.0, [&] { order.push_back(0); });
  sim.schedule_in(5.0, [&] { order.push_back(1); });
  sim.cancel(a);
  // Reuses a's slot but must still fire after event 1 (later seq).
  sim.schedule_in(5.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, LargeCallbackFallsBackToHeap) {
  // 256-byte capture: beyond SmallFn's inline buffer, exercising the heap
  // storage path.
  Simulator sim;
  std::array<double, 32> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<double>(i);
  }
  double sum = 0.0;
  sim.schedule_in(1.0, [payload, &sum] {
    for (const double v : payload) sum += v;
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 496.0);
}

TEST(Simulator, ManyEventsStressOrder) {
  Simulator sim;
  double last = -1.0;
  bool monotonic = true;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_in((i * 7919) % 1000, [&] {
      if (sim.now() < last) monotonic = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.events_executed(), 10000u);
}

// --- FIFO lanes against the binary-heap kernel they replaced ---------------

/// The kernel before the FIFO lanes, kept verbatim as an oracle: one binary
/// heap for every event, and periodic timers as self-rescheduling closures
/// that copy their std::function driver on every tick.
class HeapSimulator {
 public:
  util::Seconds now() const { return now_; }

  EventId schedule_in(util::Seconds delay, SmallFn cb) {
    assert(delay >= 0.0);
    return schedule_at(now_ + delay, std::move(cb));
  }

  EventId schedule_at(util::Seconds at, SmallFn cb) {
    assert(at >= now_);
    const std::uint32_t index = allocate_slot(std::move(cb));
    const std::uint32_t gen = slots_[index].gen;
    heap_.push(Event{at, next_seq_++, index, gen});
    return make_id(index, gen);
  }

  bool cancel(EventId id) {
    if (!id.valid()) return false;
    const auto index = static_cast<std::uint32_t>(id.value >> 32);
    const auto gen = static_cast<std::uint32_t>(id.value);
    if (index >= slots_.size()) return false;
    Slot& slot = slots_[index];
    if (slot.gen != gen || slot.next_free != kOccupied) return false;
    release_slot(index);
    return true;
  }

  void schedule_periodic(util::Seconds phase, util::Seconds period,
                         std::function<bool()> cb) {
    auto driver = std::make_shared<std::function<void()>>();
    periodic_drivers_.push_back(driver);
    *driver = [this, period, cb = std::move(cb),
               weak = std::weak_ptr<std::function<void()>>(driver)]() {
      if (!cb()) return;
      if (const auto self = weak.lock()) schedule_in(period, *self);
    };
    schedule_in(phase, *driver);
  }

  util::Seconds run(util::Seconds until = -1.0) {
    while (!heap_.empty()) {
      const Event ev = heap_.top();
      if (until >= 0.0 && ev.time > until) {
        now_ = until;
        return now_;
      }
      heap_.pop();
      Slot& slot = slots_[ev.slot];
      if (slot.gen != ev.gen || slot.next_free != kOccupied) continue;
      SmallFn fn = std::move(slot.fn);
      release_slot(ev.slot);
      now_ = ev.time;
      ++executed_;
      if (fn) fn();
    }
    return now_;
  }

  void clear() {
    while (!heap_.empty()) heap_.pop();
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].next_free == kOccupied) release_slot(i);
    }
  }

  std::uint64_t events_executed() const { return executed_; }
  std::size_t events_pending() const { return pending_; }
  std::uint64_t events_scheduled() const { return next_seq_ - 1; }

 private:
  struct Event {
    util::Seconds time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    SmallFn fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kOccupied;
  };
  static constexpr std::uint32_t kOccupied = 0xffffffffu;
  static constexpr std::uint32_t kFreeListEnd = 0xfffffffeu;

  std::uint32_t allocate_slot(SmallFn cb) {
    std::uint32_t index;
    if (free_head_ != kFreeListEnd) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[index].fn = std::move(cb);
    slots_[index].next_free = kOccupied;
    ++pending_;
    return index;
  }

  void release_slot(std::uint32_t index) {
    Slot& slot = slots_[index];
    slot.fn.reset();
    if (++slot.gen == 0) slot.gen = 1;
    slot.next_free = free_head_;
    free_head_ = index;
    --pending_;
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return EventId{(static_cast<std::uint64_t>(slot) << 32) | gen};
  }

  util::Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kFreeListEnd;
  std::vector<std::shared_ptr<std::function<void()>>> periodic_drivers_;
};

/// One kernel plus the program the differential test runs on it. Every
/// decision a callback makes draws from the world's own stream, so two
/// kernels that dispatch in the same order make the same decisions.
template <typename Sim>
struct World {
  explicit World(std::uint64_t seed, std::vector<util::Seconds> periods)
      : rng(seed), periods(std::move(periods)) {}

  Sim sim;
  util::Rng rng;
  std::vector<util::Seconds> periods;
  /// (label, time) of every dispatch, in order.
  std::vector<std::pair<int, util::Seconds>> trace;
  /// Every one-shot handle ever minted: pending, fired, cancelled.
  std::vector<EventId> handles;
  /// Per periodic timer: keep re-arming?
  std::vector<bool> timer_on;
  int next_label = 0;

  /// A grid time `k` half-seconds from now: ties with pending events are
  /// common, and k == 0 is the current instant.
  util::Seconds grid_time() { return sim.now() + 0.5 * rng.uniform_int(0, 8); }

  void add_event(util::Seconds at) {
    const int label = next_label++;
    handles.push_back(sim.schedule_at(at, [this, label] { fire(label); }));
  }

  void fire(int label) {
    trace.emplace_back(label, sim.now());
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1:  // a zero-delay follow-up, behind everything at this instant
        add_event(sim.now());
        break;
      case 2:
        add_event(grid_time());
        break;
      case 3:
        cancel_random();
        break;
      case 4:
        if (timer_on.size() < 40) add_timer();
        break;
      default:
        break;
    }
  }

  bool cancel_random() {
    if (handles.empty()) return false;
    return sim.cancel(handles[rng.index(handles.size())]);
  }

  void add_timer() {
    const int id = static_cast<int>(timer_on.size());
    timer_on.push_back(true);
    const util::Seconds period = periods[rng.index(periods.size())];
    const util::Seconds phase = 0.5 * rng.uniform_int(0, 6);
    sim.schedule_periodic(phase, period, [this, id] {
      trace.emplace_back(-1 - id, sim.now());
      if (rng.uniform_int(0, 15) == 0) add_event(sim.now());
      if (rng.uniform_int(0, 30) == 0) timer_on[static_cast<std::size_t>(id)] = false;
      return static_cast<bool>(timer_on[static_cast<std::size_t>(id)]);
    });
  }

  void stop_all_timers() { timer_on.assign(timer_on.size(), false); }
};

template <typename A, typename B>
void expect_same_state(const World<A>& a, const World<B>& b, int step) {
  ASSERT_EQ(a.trace, b.trace) << "step " << step;
  ASSERT_EQ(a.sim.now(), b.sim.now()) << "step " << step;
  ASSERT_EQ(a.sim.events_executed(), b.sim.events_executed()) << "step " << step;
  ASSERT_EQ(a.sim.events_pending(), b.sim.events_pending()) << "step " << step;
  ASSERT_EQ(a.sim.events_scheduled(), b.sim.events_scheduled())
      << "step " << step;
}

TEST(Simulator, LanesMatchBinaryHeapKernel) {
  // 1-3 periods; 0.3 is inexact in binary, so its ticks exercise the
  // rounding of now + period.
  const std::vector<std::vector<util::Seconds>> period_sets = {
      {3.0}, {1.0, 2.5}, {0.3, 1.5, 3.0}};
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto& periods = period_sets[seed % period_sets.size()];
    World<Simulator> lanes(seed, periods);
    World<HeapSimulator> heap(seed, periods);
    util::Rng ops(seed * 7919);
    for (int step = 0; step < 400; ++step) {
      const int op = ops.uniform_int(0, 19);
      const int pick = ops.uniform_int(0, 1 << 20);
      const auto both = [&](auto&& fn) {
        fn(lanes);
        fn(heap);
      };
      if (op < 6) {  // one-shot at now, on a grid tie, or in the future
        both([&](auto& w) {
          w.add_event(pick % 3 == 0 ? w.sim.now() : w.grid_time());
        });
      } else if (op < 8) {
        both([](auto& w) { w.add_timer(); });
      } else if (op < 9) {  // a running timer stops at its next tick
        both([&](auto& w) {
          if (!w.timer_on.empty()) {
            w.timer_on[static_cast<std::size_t>(pick) % w.timer_on.size()] =
                false;
          }
        });
      } else if (op < 12) {  // pending, fired or stale handles alike
        bool cancelled_lanes = lanes.cancel_random();
        bool cancelled_heap = heap.cancel_random();
        ASSERT_EQ(cancelled_lanes, cancelled_heap) << "step " << step;
      } else if (op < 18) {
        // Now and then a horizon in the past: run() then moves the clock
        // back to it, and later events at the new now() land before queued
        // ones.
        const util::Seconds ahead =
            0.25 * (pick % 24) - (pick % 7 == 0 ? 1.0 : 0.0);
        both([&](auto& w) { w.sim.run(std::max(0.0, w.sim.now() + ahead)); });
      } else if (op < 19) {
        both([](auto& w) {
          w.stop_all_timers();
          w.sim.run();
        });
      } else {
        both([](auto& w) {
          w.sim.clear();
          w.stop_all_timers();
        });
      }
      expect_same_state(lanes, heap, step);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Simulator, LaneStorageBoundedByLiveTimers) {
  // 2,000 timers on one period tick 10^6 times; a tick stops its timer now
  // and then and a fresh one starts in its place, so the live count stays
  // 2,000 while timer cells and lane entries are recycled.
  constexpr int kTimers = 2000;
  constexpr std::uint64_t kTicks = 1000000;
  Simulator sim;
  util::Rng rng(5);
  std::uint64_t ticks = 0;
  std::function<void()> start = [&] {
    sim.schedule_periodic(rng.uniform(0.0, 3.0), 3.0, [&] {
      ++ticks;
      if (rng.uniform_int(0, 99) != 0) return true;
      start();
      return false;
    });
  };
  for (int i = 0; i < kTimers; ++i) start();
  std::size_t peak = 0;
  while (ticks < kTicks) {
    sim.run(sim.now() + 3.0);
    peak = std::max(peak, sim.lane_capacity());
    ASSERT_EQ(sim.events_pending(), static_cast<std::size_t>(kTimers));
  }
  // One ring of at most twice the live timers (the capacity is a power of
  // two), plus the empty now-lane.
  EXPECT_LE(peak, static_cast<std::size_t>(2 * kTimers));
  EXPECT_GE(peak, static_cast<std::size_t>(kTimers));
}

}  // namespace
}  // namespace dfs::sim
