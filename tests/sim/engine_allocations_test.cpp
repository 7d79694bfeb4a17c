// Heap allocations per event.  An event's order key is (at, seq), two
// numbers: once the heap and the callback slab have grown to the run's
// depth, an event whose closure fits std::function's inline buffer (two
// words, trivially copyable) costs no allocation at all.  A task's
// completion (a 112-byte closure of the scheduler and its record) and a
// message's delivery (48 bytes of network and message) did not fit; their
// owners now park that state in a sim::Slab and schedule the slot, so
// they cost none either.  The count comes from a replaced global operator
// new, which is why this test has a binary of its own.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <type_traits>

#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/slab.hpp"

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
  EXPECT_NE(engine.next_event_time(), kTimeInfinity);
}

/// A task completion's state: what the 112-byte closure carried besides
/// the scheduler (sched::CompletionRecord, a string among it).
struct Record {
  std::string app_name = "sweep3d";
  std::array<double, 9> times{};
};
static_assert(sizeof(Record) + sizeof(void*) == 112);

/// Completes tasks as sched::LocalScheduler does: parks each record and
/// schedules a closure of itself and the slot, which fits the inline
/// buffer whatever the record's size.
struct Scheduler {
  Engine& engine;
  Slab<Record> records;

  void start(Record record) {
    const std::uint32_t slot = records.park(std::move(record));
    engine.schedule_at(engine.now() + 1.0, [this, slot]() { complete(slot); });
  }
  void complete(std::uint32_t slot) { start(records.take(slot)); }
};

TEST(EngineAllocations, ParkedCompletionsAllocateNothingPerEvent) {
  Engine engine;
  for (int i = 0; i < 600; ++i) engine.schedule_at(1e9 + i, Tick{&engine});
  Scheduler scheduler{engine, {}};
  for (int i = 0; i < 8; ++i) scheduler.start(Record{});
  EXPECT_EQ(steady_state_allocations(engine), 0u);
}

TEST(EngineAllocations, DeliveriesAllocateNothingPerMessage) {
  // Two endpoints bounce messages: each delivery sends the next one.  The
  // payload's buffer is the sender's; a short one stays in the string.
  Engine engine;
  Network network{engine, 1.0};
  EndpointId b = 0;
  const EndpointId a = network.register_endpoint(
      [&](const Message& m) { network.send(m.to, b, m.payload); });
  b = network.register_endpoint(
      [&](const Message& m) { network.send(m.to, a, m.payload); });
  for (int i = 0; i < 8; ++i) network.send(a, b, "request");
  EXPECT_EQ(steady_state_allocations(engine), 0u);
}

TEST(EngineAllocations, PendingClosuresDieWithTheEngine) {
  // Every closure still queued, cancelled or not, is destroyed with the
  // engine, and a fired one once it has run: nothing it owns leaks.
  const auto owned = std::make_shared<int>(0);
  {
    Engine engine;
    engine.schedule_at(1.0, [owned] {});
    engine.schedule_at(2.0, [owned] {});
    engine.cancel(engine.schedule_at(3.0, [owned] {}));
    EXPECT_EQ(owned.use_count(), 4);
    engine.run_until(1.0);
    EXPECT_EQ(owned.use_count(), 3);
  }
  EXPECT_EQ(owned.use_count(), 1);
}

}  // namespace
}  // namespace gridlb::sim
