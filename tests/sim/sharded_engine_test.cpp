// Shard coordinator unit tests: lookahead-window admission, the milestone
// lead that makes the exact-stop decision sound, and S=1 vs S>1
// equivalence of a cross-shard event program (the engine-level half of
// the shard-count-invariance contract; the experiment-level half lives in
// tests/core/shard_invariance_test.cpp).
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace gridlb::sim {
namespace {

TEST(SpinBarrier, SinglePartyPasses) {
  SpinBarrier barrier(1);
  EXPECT_TRUE(barrier.arrive_and_wait());
  EXPECT_TRUE(barrier.arrive_and_wait());
}

TEST(SpinBarrier, KillReleasesWithFalse) {
  SpinBarrier barrier(2);
  barrier.kill();
  EXPECT_FALSE(barrier.arrive_and_wait());
}

TEST(ShardedEngine, SingleShardRanksEventsAsTheyRun) {
  // One shard has no windows to seal: every executed event's rank is
  // final at once, during drive() and after it returns.
  ShardedEngine sharded(1, 1.0);
  Engine& engine = sharded.shard(0);
  int completed = 0;
  engine.schedule_at(0.5, [&engine] { engine.schedule_at(0.75, [] {}); });
  engine.schedule_milestone_at(1.0, [&engine, &completed] {
    ++completed;
    engine.schedule_at(2.0, [&engine] { engine.schedule_at(3.0, [] {}); });
  });
  DriveGoal goal;
  goal.done = [&completed] { return completed == 1; };
  goal.remaining = [&completed] {
    return static_cast<std::uint64_t>(1 - completed);
  };
  sharded.drive(goal, 100.0);
  EXPECT_TRUE(engine.window_records().empty());
  engine.run();
  EXPECT_TRUE(engine.window_records().empty());
  EXPECT_EQ(sharded.events_processed(), 5u);
}

TEST(ShardedEngine, MultiShardRequiresPositiveLookahead) {
  EXPECT_THROW(ShardedEngine(2, 0.0), AssertionError);
}

TEST(ShardedEngine, SetupPostSchedulesDirectly) {
  ShardedEngine sharded(2, 1.0);
  // Outside any event there is no source shard; even a sub-lookahead
  // delay is fine because nothing has run yet (the queues are at t=0).
  bool fired = false;
  sharded.post(1, 0.25, [&fired] { fired = true; });
  int completed = 0;
  sharded.shard(0).schedule_milestone_at(10.0, [&completed] { ++completed; });
  sharded.shard(1).schedule_milestone_at(10.0, [&completed] { ++completed; });
  DriveGoal goal;
  goal.done = [&completed] { return completed == 2; };
  goal.remaining = [&completed] {
    return static_cast<std::uint64_t>(2 - completed);
  };
  sharded.drive(goal, 100.0);
  EXPECT_TRUE(fired);
  EXPECT_EQ(completed, 2);
}

TEST(ShardedEngine, CrossShardPostBelowLookaheadThrows) {
  ShardedEngine sharded(2, 1.0);
  sharded.shard(0).schedule_at(0.0, [&sharded] {
    sharded.post(1, 0.5, [] {});  // 0.5 < lookahead 1.0
  });
  int completed = 0;
  sharded.shard(1).schedule_milestone_at(5.0, [&completed] { ++completed; });
  DriveGoal goal;
  goal.done = [&completed] { return completed == 1; };
  goal.remaining = [&completed] {
    return static_cast<std::uint64_t>(1 - completed);
  };
  EXPECT_THROW(sharded.drive(goal, 100.0), AssertionError);
}

TEST(ShardedEngine, CrossShardDeliveryRespectsSafeTime) {
  // An event at t on shard 0 posting to shard 1 with delay == lookahead
  // must execute on shard 1 at exactly t + lookahead, with shard 1's
  // clock never having run past the safe time when it fires.
  ShardedEngine sharded(2, 1.0);
  std::vector<double> arrivals;  // only touched by shard 1's thread
  sharded.shard(0).schedule_at(0.0, [&sharded, &arrivals] {
    sharded.post(1, 1.0, [&sharded, &arrivals] {
      arrivals.push_back(sharded.shard(1).now());
    });
  });
  // Keep shard 1 busy with its own events so admission order matters.
  for (int i = 0; i < 8; ++i) {
    sharded.shard(1).schedule_at(0.25 * i, [] {});
  }
  int completed = 0;
  sharded.shard(0).schedule_milestone_at(50.0, [&completed] { ++completed; });
  DriveGoal goal;
  goal.done = [&completed] { return completed == 1; };
  goal.remaining = [&completed] {
    return static_cast<std::uint64_t>(1 - completed);
  };
  sharded.drive(goal, 100.0);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 1.0);
}

TEST(ShardedEngine, MilestoneInsideLookaheadWindowThrows) {
  ShardedEngine sharded(2, 1.0);
  sharded.shard(0).schedule_at(5.0, [&sharded] {
    // 5.3 < now (5.0) + lead (1.0): the coordinator could not have counted
    // this milestone at the last barrier, so it must be rejected.
    sharded.shard(0).schedule_milestone_at(5.3, [] {});
  });
  int completed = 0;
  sharded.shard(1).schedule_milestone_at(50.0, [&completed] { ++completed; });
  DriveGoal goal;
  goal.done = [&completed] { return completed == 1; };
  goal.remaining = [&completed] {
    return static_cast<std::uint64_t>(1 - completed);
  };
  EXPECT_THROW(sharded.drive(goal, 100.0), AssertionError);
}

TEST(ShardedEngine, WorkerShardExceptionSurfacesFromDrive) {
  // Shard 3 runs on a worker thread, not the caller: its exception must
  // kill the barrier (so shards 0-2 unwind instead of deadlocking) and
  // come out of drive() on the calling thread.
  ShardedEngine sharded(4, 1.0);
  for (std::size_t s = 0; s < 4; ++s) {
    for (int i = 0; i < 16; ++i) sharded.shard(s).schedule_at(0.5 * i, [] {});
  }
  sharded.shard(3).schedule_at(2.0, [] {
    GRIDLB_REQUIRE(false, "shard 3 failed");
  });
  int completed = 0;
  sharded.shard(0).schedule_milestone_at(50.0, [&completed] { ++completed; });
  DriveGoal goal;
  goal.done = [&completed] { return completed == 1; };
  goal.remaining = [&completed] {
    return static_cast<std::uint64_t>(1 - completed);
  };
  EXPECT_THROW(sharded.drive(goal, 100.0), AssertionError);
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(sharded.shard(3).now(), 2.0);
}

TEST(ShardedEngine, CallerThreadUsableAfterShardZeroThrows) {
  // Shard 0 runs on the calling thread.  Once its throwing event has
  // unwound out of drive(), that thread must be outside any event again:
  // a fresh engine's setup-time cross-shard post has to succeed.
  {
    ShardedEngine sharded(2, 1.0);
    sharded.shard(0).schedule_at(1.0, [] {
      GRIDLB_REQUIRE(false, "shard 0 failed");
    });
    sharded.shard(1).schedule_milestone_at(50.0, [] {});
    DriveGoal goal;
    goal.done = [] { return false; };
    goal.remaining = [] { return std::uint64_t{1}; };
    EXPECT_THROW(sharded.drive(goal, 100.0), AssertionError);
  }
  EXPECT_EQ(Engine::current(), nullptr);
  ShardedEngine next(2, 1.0);
  EXPECT_NO_THROW(next.post(1, 0.25, [] {}));
}

TEST(Engine, CountMilestonesBelowHonoursBoundAndCap) {
  Engine engine;
  engine.schedule_milestone_at(2.0, [] {});
  engine.schedule_milestone_at(3.0, [] {});
  engine.schedule_milestone_at(5.0, [] {});
  EXPECT_EQ(engine.count_milestones_below(2.0, 10), 0u);  // strictly below
  EXPECT_EQ(engine.count_milestones_below(4.0, 10), 2u);
  EXPECT_EQ(engine.count_milestones_below(10.0, 10), 3u);
  EXPECT_EQ(engine.count_milestones_below(10.0, 2), 2u);  // capped
}

TEST(Engine, CancelledMilestoneIsNotCounted) {
  // A cancelled milestone can never flip the stop predicate, so once the
  // sweep has discarded it the coordinator must not count it as due.
  Engine engine;
  const EventId first = engine.schedule_milestone_at(5.0, [] {});
  engine.schedule_milestone_at(7.0, [] {});
  EXPECT_TRUE(engine.cancel(first));
  engine.run_until(20.0);
  EXPECT_EQ(engine.count_milestones_below(100.0, 10), 0u);
  EXPECT_EQ(engine.events_swept(), 1u);
  // Later milestones are still counted.
  engine.schedule_milestone_at(30.0, [] {});
  EXPECT_EQ(engine.count_milestones_below(100.0, 10), 1u);
}

// A small cross-shard event program: `nodes` logical nodes, each pinned to
// shard (node % shard_count), ticking periodically and passing a token to
// the next node with exactly-lookahead latency.  Per-node logs are only
// ever touched by the owning shard's thread.
struct ProgramResult {
  std::vector<std::vector<std::pair<double, int>>> logs;  // per node
  std::uint64_t events = 0;
  double finished_at = 0.0;
};

ProgramResult run_program(std::size_t shards) {
  constexpr int kNodes = 5;
  constexpr double kLookahead = 1.0;
  ShardedEngine sharded(shards, kLookahead);
  ProgramResult result;
  result.logs.resize(kNodes);
  const auto shard_of = [&](int node) {
    return static_cast<std::size_t>(node) % sharded.shard_count();
  };

  int completed = 0;
  for (int node = 0; node < kNodes; ++node) {
    Engine& engine = sharded.shard(shard_of(node));
    // Local periodic work, phase-shifted per node so windows overlap.
    engine.schedule_periodic(0.3 * node, 0.7, [&result, &engine, node] {
      if (engine.now() < 12.0) result.logs[node].emplace_back(engine.now(), 0);
    });
    // Token passing: node -> node+1, five hops each, at the lookahead.
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
    engine.schedule_milestone_at(15.0 + node, [&completed] { ++completed; });
  }

  DriveGoal goal;
  goal.done = [&completed] { return completed == kNodes; };
  goal.remaining = [&completed] {
    return static_cast<std::uint64_t>(kNodes - completed);
  };
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
