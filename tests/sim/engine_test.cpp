#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/assert.hpp"

namespace gridlb::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.next_event_time(), kTimeInfinity);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&order]() { order.push_back(3); });
  engine.schedule_at(1.0, [&order]() { order.push_back(1); });
  engine.schedule_at(2.0, [&order]() { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 3.0);
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(1.0, [&order, i]() { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, TiesBreakInSchedulingOrderAcrossRuns) {
  // A schedule made between runs joins the tie behind everything already
  // pending at that time, including events scheduled from inside events.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&engine, &order]() {
    engine.schedule_at(5.0, [&order]() { order.push_back(0); });
  });
  engine.run_until(2.0);
  engine.schedule_at(5.0, [&order]() { order.push_back(1); });
  engine.schedule_at(3.0, [&engine, &order]() {
    engine.schedule_at(5.0, [&order]() { order.push_back(2); });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, ClockShowsEventTimeInsideCallback) {
  Engine engine;
  engine.schedule_at(7.5, [&engine]() { EXPECT_EQ(engine.now(), 7.5); });
  engine.run();
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine;
  SimTime fired_at = kNoTime;
  engine.schedule_at(2.0, [&]() {
    engine.schedule_in(3.0, [&]() { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired_at, 5.0);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine engine;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 10) engine.schedule_in(1.0, chain);
  };
  engine.schedule_at(0.0, chain);
  engine.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(engine.now(), 9.0);
}

TEST(Engine, RejectsPastEvents) {
  Engine engine;
  engine.schedule_at(5.0, []() {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(4.0, []() {}), AssertionError);
}

TEST(Engine, RejectsNullCallback) {
  Engine engine;
  EXPECT_THROW(engine.schedule_at(1.0, nullptr), AssertionError);
}

TEST(Engine, RejectsInfiniteTime) {
  Engine engine;
  EXPECT_THROW(engine.schedule_at(kTimeInfinity, []() {}), AssertionError);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(1.0, [&fired]() { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelUnknownIdReturnsFalse) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(0));
  EXPECT_FALSE(engine.cancel(9999));
}

TEST(Engine, StepReturnsFalseWhenIdle) {
  Engine engine;
  EXPECT_FALSE(engine.step());
  engine.schedule_at(1.0, []() {});
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  std::vector<double> fired;
  for (const double t : {1.0, 2.0, 3.0, 4.0}) {
    engine.schedule_at(t, [&fired, &engine]() { fired.push_back(engine.now()); });
  }
  engine.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(engine.now(), 2.5);
  engine.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(Engine, RunUntilAdvancesClockEvenWithoutEvents) {
  Engine engine;
  engine.run_until(10.0);
  EXPECT_EQ(engine.now(), 10.0);
}

TEST(Engine, NextEventTime) {
  Engine engine;
  EXPECT_EQ(engine.next_event_time(), kTimeInfinity);
  engine.schedule_at(4.0, []() {});
  const EventId early = engine.schedule_at(2.0, []() {});
  EXPECT_EQ(engine.next_event_time(), 2.0);
  engine.cancel(early);
  EXPECT_EQ(engine.next_event_time(), 4.0);
}

TEST(Engine, PeriodicFiresRepeatedly) {
  Engine engine;
  int count = 0;
  engine.schedule_periodic(0.0, 10.0, [&count]() {
    ++count;
    return true;
  });
  engine.run_until(35.0);
  EXPECT_EQ(count, 4);  // t = 0, 10, 20, 30
}

// A chain has no handle: its owner stops it by having the callback return
// false, here on a flag that another event sets.
TEST(Engine, PeriodicCancelStopsChain) {
  Engine engine;
  int count = 0;
  bool stopped = false;
  engine.schedule_periodic(0.0, 1.0, [&]() {
    if (stopped) return false;
    ++count;
    return true;
  });
  engine.schedule_at(4.5, [&stopped]() { stopped = true; });
  engine.run_until(100.0);
  EXPECT_EQ(count, 5);  // t = 0..4; the tick at 5 ends the chain
  EXPECT_EQ(engine.next_event_time(), kTimeInfinity);
}

TEST(Engine, PeriodicCancelFromInsideCallback) {
  Engine engine;
  int count = 0;
  engine.schedule_periodic(0.0, 1.0, [&count]() { return ++count < 3; });
  engine.run_until(100.0);
  EXPECT_EQ(count, 3);  // t = 0, 1, 2; the tick at 2 ends the chain
  EXPECT_EQ(engine.events_processed(), 3u);
  EXPECT_EQ(engine.next_event_time(), kTimeInfinity);
}

TEST(Engine, PeriodicRejectsNonPositivePeriod) {
  Engine engine;
  EXPECT_THROW(engine.schedule_periodic(0.0, 0.0, []() { return true; }),
               AssertionError);
}

// A periodic chain must own its callback only through the queue: a tick
// that captured itself would leak the callback (and everything it holds)
// past both the chain's end and the engine's destruction.
TEST(Engine, PeriodicChainFreesCallbackWhenEngineDestroyedPending) {
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  {
    Engine engine;
    engine.schedule_periodic(0.0, 1.0, [sentinel]() {
      ++*sentinel;
      return true;
    });
    sentinel.reset();
    engine.run_until(3.5);
    EXPECT_FALSE(watch.expired());  // the chain is still pending
  }
  EXPECT_TRUE(watch.expired());
}

TEST(Engine, PeriodicChainFreesCallbackWhenItEnds) {
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  {
    Engine engine;
    engine.schedule_periodic(0.0, 1.0,
                             [sentinel]() { return ++*sentinel < 2; });
    sentinel.reset();
    engine.run_until(0.5);  // fired once
    EXPECT_EQ(*watch.lock(), 1);
    engine.run_until(5.0);  // the tick at 1 returns false
    EXPECT_TRUE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(Engine, EventsProcessedCounter) {
  Engine engine;
  for (int i = 0; i < 7; ++i) engine.schedule_at(i, []() {});
  engine.run();
  EXPECT_EQ(engine.events_processed(), 7u);
}

TEST(Engine, ConstQueriesSkipCancelledEvents) {
  Engine engine;
  bool fired = false;
  const EventId first = engine.schedule_at(1.0, [&fired]() { fired = true; });
  engine.schedule_at(2.0, []() {});
  EXPECT_TRUE(engine.cancel(first));
  // The queries prune the cancelled head lazily instead of copying the
  // whole queue; the cancelled event must be invisible either way.
  EXPECT_NE(engine.next_event_time(), kTimeInfinity);
  EXPECT_EQ(engine.next_event_time(), 2.0);
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.next_event_time(), kTimeInfinity);
  EXPECT_EQ(engine.next_event_time(), kTimeInfinity);
}

TEST(Engine, AllCancelledReadsAsIdle) {
  Engine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(engine.schedule_at(static_cast<double>(i) + 1.0, []() {}));
  }
  for (const EventId id : ids) EXPECT_TRUE(engine.cancel(id));
  EXPECT_EQ(engine.next_event_time(), kTimeInfinity);
  EXPECT_EQ(engine.next_event_time(), kTimeInfinity);
  engine.run();
  EXPECT_EQ(engine.events_processed(), 0u);
  // A fresh event after the sweep behaves normally.
  int count = 0;
  engine.schedule_at(500.0, [&count]() { ++count; });
  EXPECT_EQ(engine.next_event_time(), 500.0);
  engine.run();
  EXPECT_EQ(count, 1);
}

TEST(Engine, EventsSweptCountsLazyDiscards) {
  Engine engine;
  EXPECT_EQ(engine.events_swept(), 0u);
  const EventId a = engine.schedule_at(1.0, []() {});
  const EventId b = engine.schedule_at(2.0, []() {});
  engine.schedule_at(3.0, []() {});
  EXPECT_TRUE(engine.cancel(a));
  EXPECT_TRUE(engine.cancel(b));
  engine.run();
  EXPECT_EQ(engine.events_swept(), 2u);
  EXPECT_EQ(engine.events_processed(), 1u);
}

TEST(Engine, ManyEventsStressOrder) {
  Engine engine;
  std::vector<double> fired;
  // Schedule in a scrambled order; firing must be sorted.
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    engine.schedule_at(t, [&fired, &engine]() { fired.push_back(engine.now()); });
  }
  engine.run();
  EXPECT_EQ(fired.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

}  // namespace
}  // namespace gridlb::sim
