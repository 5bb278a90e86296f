#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "dfs/sim/simulator.h"

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

}  // namespace
}  // namespace dfs::sim
