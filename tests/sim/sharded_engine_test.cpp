// Partitioned-run unit tests: setup posts, cross-queue posts joining the
// one (at, seq) order, the exact stop, exceptions surfacing from drive(),
// and S=1 vs S>1 equivalence of a cross-queue event program (the
// engine-level half of the shard-count-invariance contract; the
// experiment-level half lives in tests/core/shard_invariance_test.cpp).
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace gridlb::sim {
namespace {

TEST(ShardedEngine, RequiresAtLeastOneShard) {
  EXPECT_THROW(ShardedEngine(0), AssertionError);
}

TEST(ShardedEngine, DriveStopsAtTheEventThatMeetsTheGoal) {
  // Four queues with equal-time events on each: the drive must stop right
  // after the event that meets the goal, whichever queue holds the rest.
  ShardedEngine sharded(4);
  int completed = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    sharded.shard(s).schedule_at(1.0, [] {});
    sharded.shard(s).schedule_at(2.0, [&completed] { ++completed; });
    sharded.shard(s).schedule_at(2.0, [] {});
  }
  DriveGoal goal;
  goal.done = [&completed] { return completed == 2; };
  sharded.drive(goal, 100.0);
  // Four events at 1.0, then shard 0's and shard 1's completions with
  // shard 0's filler between them.
  EXPECT_EQ(sharded.events_processed(), 7u);
  EXPECT_EQ(sharded.max_now(), 2.0);
}

TEST(ShardedEngine, SetupPostSchedulesDirectly) {
  // Outside any event there is no source queue: the post lands on the
  // destination at its own clock plus the delay.
  ShardedEngine sharded(2);
  bool fired = false;
  sharded.post(1, 0.25, [&fired] { fired = true; });
  int completed = 0;
  sharded.shard(0).schedule_at(10.0, [&completed] { ++completed; });
  sharded.shard(1).schedule_at(10.0, [&completed] { ++completed; });
  DriveGoal goal;
  goal.done = [&completed] { return completed == 2; };
  sharded.drive(goal, 100.0);
  EXPECT_TRUE(fired);
  EXPECT_EQ(completed, 2);
}

TEST(ShardedEngine, CrossShardPostOrdersWithLocalSchedules) {
  // A zero-delay post to another queue joins the equal-time tie in
  // scheduling order across every queue, as on one queue.
  ShardedEngine sharded(2);
  std::vector<char> order;
  sharded.shard(0).schedule_at(1.0, [&sharded, &order] {
    order.push_back('A');
    sharded.post(1, 0.0, [&order] { order.push_back('X'); });
    sharded.shard(0).schedule_at(1.0, [&order] { order.push_back('Y'); });
  });
  sharded.shard(1).schedule_at(1.0, [&order] { order.push_back('B'); });
  DriveGoal goal;
  goal.done = [&order] { return order.size() == 4; };
  sharded.drive(goal, 100.0);
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'X', 'Y'}));
}

TEST(ShardedEngine, CrossShardDeliveryRespectsSafeTime) {
  // An event at t on shard 0 posting to shard 1 with delay d must execute
  // on shard 1 at exactly t + d, even with shard 1 busy with its own
  // events around that time.
  ShardedEngine sharded(2);
  std::vector<double> arrivals;
  sharded.shard(0).schedule_at(0.0, [&sharded, &arrivals] {
    sharded.post(1, 1.0, [&sharded, &arrivals] {
      arrivals.push_back(sharded.shard(1).now());
    });
  });
  for (int i = 0; i < 8; ++i) {
    sharded.shard(1).schedule_at(0.25 * i, [] {});
  }
  int completed = 0;
  sharded.shard(0).schedule_at(50.0, [&completed] { ++completed; });
  DriveGoal goal;
  goal.done = [&completed] { return completed == 1; };
  sharded.drive(goal, 100.0);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 1.0);
}

TEST(ShardedEngine, WorkerShardExceptionSurfacesFromDrive) {
  // An event on shard 3, not the first queue, throws: the exception must
  // come out of drive() and no later event may run.
  ShardedEngine sharded(4);
  for (std::size_t s = 0; s < 4; ++s) {
    for (int i = 0; i < 16; ++i) sharded.shard(s).schedule_at(0.5 * i, [] {});
  }
  sharded.shard(3).schedule_at(2.0, [] {
    GRIDLB_REQUIRE(false, "shard 3 failed");
  });
  int completed = 0;
  sharded.shard(0).schedule_at(50.0, [&completed] { ++completed; });
  DriveGoal goal;
  goal.done = [&completed] { return completed == 1; };
  EXPECT_THROW(sharded.drive(goal, 100.0), AssertionError);
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(sharded.shard(3).now(), 2.0);
  EXPECT_EQ(sharded.max_now(), 2.0);
}

TEST(ShardedEngine, CallerThreadUsableAfterShardZeroThrows) {
  // Once a throwing event has unwound out of drive(), the calling thread
  // must be outside any event again: a fresh run's setup-time post has to
  // read its destination's clock, not the dead run's.
  {
    ShardedEngine sharded(2);
    sharded.shard(0).schedule_at(1.0, [] {
      GRIDLB_REQUIRE(false, "shard 0 failed");
    });
    sharded.shard(1).schedule_at(50.0, [] {});
    DriveGoal goal;
    goal.done = [] { return false; };
    EXPECT_THROW(sharded.drive(goal, 100.0), AssertionError);
  }
  EXPECT_EQ(Engine::current(), nullptr);
  ShardedEngine next(2);
  EXPECT_NO_THROW(next.post(1, 0.25, [] {}));
  EXPECT_EQ(next.shard(1).next_event_time(), 0.25);
}

// A small cross-queue event program: `nodes` logical nodes, each pinned to
// shard (node % shard_count), ticking periodically and passing a token to
// the next node one second later.
struct ProgramResult {
  std::vector<std::vector<std::pair<double, int>>> logs;  // per node
  std::uint64_t events = 0;
  double finished_at = 0.0;
};

ProgramResult run_program(std::size_t shards) {
  constexpr int kNodes = 5;
  ShardedEngine sharded(shards);
  ProgramResult result;
  result.logs.resize(kNodes);
  const auto shard_of = [&](int node) {
    return static_cast<std::size_t>(node) % sharded.shard_count();
  };

  int completed = 0;
  for (int node = 0; node < kNodes; ++node) {
    Engine& engine = sharded.shard(shard_of(node));
    // Local periodic work, phase-shifted per node so the queues interleave.
    engine.schedule_periodic(0.3 * node, 0.7, [&result, &engine, node] {
      if (engine.now() < 12.0) result.logs[node].emplace_back(engine.now(), 0);
    });
    // Token passing: node -> node+1, five hops each.
    for (int hop = 1; hop <= 5; ++hop) {
      engine.schedule_at(2.0 * hop, [&sharded, &result, &shard_of, node] {
        const int next = (node + 1) % kNodes;
        result.logs[node].emplace_back(
            sharded.shard(shard_of(node)).now(), 1);
        sharded.post(shard_of(next), 1.0, [&sharded, &result, &shard_of,
                                           next] {
          result.logs[next].emplace_back(
              sharded.shard(shard_of(next)).now(), 2);
        });
      });
    }
    engine.schedule_at(15.0 + node, [&completed] { ++completed; });
  }

  DriveGoal goal;
  goal.done = [&completed] { return completed == kNodes; };
  sharded.drive(goal, 1000.0);
  result.events = sharded.events_processed();
  result.finished_at = sharded.max_now();
  return result;
}

TEST(ShardedEngine, ProgramIsShardCountInvariant) {
  const ProgramResult reference = run_program(1);
  for (const std::size_t shards : {2u, 3u, 5u}) {
    const ProgramResult sharded = run_program(shards);
    EXPECT_EQ(sharded.logs, reference.logs) << "shards=" << shards;
    EXPECT_EQ(sharded.events, reference.events) << "shards=" << shards;
    EXPECT_EQ(sharded.finished_at, reference.finished_at)
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace gridlb::sim
