// Heap allocations per event.  An event's order key is (at, seq), two
// numbers: once the heap and the callback slab have grown to the run's
// depth, an event whose closure fits std::function's inline buffer costs
// no allocation at all.  The count comes from a replaced global operator
// new, which is why this test has a binary of its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "sim/engine.hpp"

namespace {

std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace gridlb::sim {
namespace {

constexpr int kEvents = 100000;

template <class Work>
std::uint64_t allocations(Work work) {
  const std::uint64_t before = g_allocations;
  work();
  return g_allocations - before;
}

/// Reschedules itself one second later, forever.
struct Tick {
  Engine* engine;
  void operator()() const { engine->schedule_in(1.0, *this); }
};
static_assert(sizeof(Tick) == 8 && std::is_trivially_copyable_v<Tick>);

/// Like Tick, but as a task completion: reschedules itself at an
/// absolute time, as LocalScheduler schedules a task's end.
struct Completion {
  Engine* engine;
  void operator()() const { engine->schedule_at(engine->now() + 1.0, *this); }
};
static_assert(sizeof(Completion) == 8 &&
              std::is_trivially_copyable_v<Completion>);

/// Allocations made by the `kEvents` events after a warm-up of as many.
std::uint64_t steady_state_allocations(Engine& engine) {
  engine.run_until(kEvents);
  const std::uint64_t count =
      allocations([&] { engine.run_until(2.0 * kEvents); });
  EXPECT_GE(engine.events_processed(), std::uint64_t{2 * kEvents});
  return count;
}

TEST(EngineAllocations, LoneChainAllocatesNothingPerEvent) {
  Engine engine;
  engine.schedule_in(1.0, Tick{&engine});
  EXPECT_EQ(steady_state_allocations(engine), 0u);
}

TEST(EngineAllocations, ChainBehindPendingEventsAllocatesNothingPerEvent) {
  // The portal schedules every submission up front, so the queue of a real
  // run is hundreds deep while the chain of messages and completions runs.
  Engine engine;
  for (int i = 0; i < 600; ++i) engine.schedule_at(1e9 + i, Tick{&engine});
  engine.schedule_in(1.0, Tick{&engine});
  EXPECT_EQ(steady_state_allocations(engine), 0u);
}

TEST(EngineAllocations, LoneShardCompletionsAllocateNothingPerEvent) {
  Engine engine;
  engine.schedule_at(1.0, Completion{&engine});
  EXPECT_EQ(steady_state_allocations(engine), 0u);
  EXPECT_TRUE(engine.has_pending());
}

}  // namespace
}  // namespace gridlb::sim
