#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace gridlb::sim {

ShardedEngine::ShardedEngine(std::size_t shards) {
  GRIDLB_REQUIRE(shards >= 1, "shard count must be at least 1");
  for (std::size_t s = 0; s < shards; ++s) {
    engines_.push_back(std::make_unique<Engine>(&next_seq_));
  }
}

void ShardedEngine::post(std::size_t dest, SimTime delay, EventFn fn) {
  GRIDLB_REQUIRE(dest < engines_.size(), "post to unknown shard");
  GRIDLB_REQUIRE(delay >= 0.0, "delay must be non-negative");
  Engine& target = *engines_[dest];
  const Engine* const source = Engine::current();
  // No queue's clock is ahead of the executing event's: drive() runs the
  // earliest event over all queues next.
  const SimTime now = source != nullptr ? source->now() : target.now();
  target.schedule_at(now + delay, std::move(fn));
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& engine : engines_) total += engine->events_processed();
  return total;
}

std::uint64_t ShardedEngine::events_swept() const {
  std::uint64_t total = 0;
  for (const auto& engine : engines_) total += engine->events_swept();
  return total;
}

SimTime ShardedEngine::max_now() const {
  SimTime latest = 0.0;
  for (const auto& engine : engines_) latest = std::max(latest, engine->now());
  return latest;
}

void ShardedEngine::drive(const DriveGoal& goal, SimTime horizon) {
  GRIDLB_REQUIRE(goal.done != nullptr, "drive goal must be set");
  while (!goal.done()) {
    Engine* next = nullptr;
    Engine::PeekKey next_key;
    for (const auto& engine : engines_) {
      const auto key = engine->peek_key();
      if (key.has_value() && (next == nullptr || *key < next_key)) {
        next = engine.get();
        next_key = *key;
      }
    }
    if (next == nullptr) {
      GRIDLB_REQUIRE(goal.until < kTimeInfinity,
                     "event queue drained with tasks missing");
      return;
    }
    if (next_key.at >= goal.until) return;  // open-loop cutoff
    GRIDLB_REQUIRE(next_key.at <= horizon,
                   "experiment exceeded the horizon limit");
    next->step();
  }
}

}  // namespace gridlb::sim
