#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/assert.hpp"

namespace gridlb::sim {

EventId Engine::schedule_at(SimTime at, EventFn fn) {
  GRIDLB_REQUIRE(std::isfinite(at), "event time must be finite");
  GRIDLB_REQUIRE(at >= now_, "cannot schedule an event in the past");
  GRIDLB_REQUIRE(fn != nullptr, "event callback must be set");
  const std::uint32_t slot = slots_.park(std::move(fn));
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(Key{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return seq;
}

EventId Engine::schedule_in(SimTime delay, EventFn fn) {
  GRIDLB_REQUIRE(delay >= 0.0, "delay must be non-negative");
  return schedule_at(now_ + delay, std::move(fn));
}

void Engine::schedule_periodic(SimTime start, SimTime period, PeriodicFn fn) {
  GRIDLB_REQUIRE(period > 0.0, "period must be positive");
  // Each firing reschedules a copy of itself, so the queue holds the only
  // reference to the chain: ending it or destroying the engine frees the
  // callback (a tick that captured itself would keep it alive).
  struct Tick {
    Engine* engine;
    SimTime period;
    std::shared_ptr<PeriodicFn> fn;

    void operator()() const {
      if (!(*fn)()) return;
      engine->schedule_at(engine->now_ + period, *this);
    }
  };
  schedule_at(start,
              Tick{this, period, std::make_shared<PeriodicFn>(std::move(fn))});
}

bool Engine::cancel(EventId id) {
  if (id == 0 || id >= next_seq_) return false;
  cancelled_.insert(id);
  return true;
}

void Engine::pop_cancelled() const {
  // O(1) steady state: once every recorded cancellation has been matched
  // against its queue entry the set is empty and the sweep is a single
  // branch, no matter how often next_event_time() is polled.
  while (!cancelled_.empty() && !heap_.empty()) {
    const Key top = heap_.front();
    if (cancelled_.erase(top.seq) == 0) return;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    slots_.take(top.slot);  // destroys the cancelled callback
    ++events_swept_;
  }
}

bool Engine::step() {
  pop_cancelled();
  if (heap_.empty()) return false;
  const Key key = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  GRIDLB_ASSERT(key.at >= now_);
  // Taken out before running: the callback may schedule into this slot
  // once it is free, or grow the slab under it.
  const EventFn fn = slots_.take(key.slot);
  now_ = key.at;
  ++events_processed_;
  fn();
  return true;
}

SimTime Engine::next_event_time() const {
  pop_cancelled();
  return heap_.empty() ? kTimeInfinity : heap_.front().at;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(SimTime until) {
  GRIDLB_REQUIRE(until >= now_, "run_until target is in the past");
  for (;;) {
    pop_cancelled();
    if (heap_.empty() || heap_.front().at > until) break;
    step();
  }
  now_ = until;
}

}  // namespace gridlb::sim
