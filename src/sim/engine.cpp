#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/assert.hpp"

namespace gridlb::sim {

namespace {
// Periodic-chain ids carry the top bit so they never collide with (or
// linger in the cancellation set of) queued event ids.
constexpr EventId kChainBit = EventId{1} << 63;
}  // namespace

void Engine::release(std::uint32_t index) const {
  slots_[index] = nullptr;
  free_slots_.push_back(index);
}

EventId Engine::schedule_at(SimTime at, EventFn fn) {
  GRIDLB_REQUIRE(std::isfinite(at), "event time must be finite");
  GRIDLB_REQUIRE(at >= now_, "cannot schedule an event in the past");
  GRIDLB_REQUIRE(fn != nullptr, "event callback must be set");
  std::uint32_t index;
  if (free_slots_.empty()) {
    GRIDLB_REQUIRE(slots_.size() < UINT32_MAX, "too many pending events");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[index] = std::move(fn);
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(Key{at, seq, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return seq;
}

EventId Engine::schedule_in(SimTime delay, EventFn fn) {
  GRIDLB_REQUIRE(delay >= 0.0, "delay must be non-negative");
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Engine::schedule_periodic(SimTime start, SimTime period, EventFn fn) {
  GRIDLB_REQUIRE(period > 0.0, "period must be positive");
  // The chain id lives in its own id space and is never placed on the
  // queue; each tick consults cancelled_chains_ before firing.
  const EventId chain_id = kChainBit | next_chain_++;
  // Each firing reschedules a copy of itself, so the queue holds the only
  // reference to the chain: cancelling it or destroying the engine frees
  // the callback (a tick that captured itself would keep it alive).
  struct Tick {
    Engine* engine;
    EventId chain_id;
    SimTime period;
    std::shared_ptr<EventFn> fn;

    void operator()() const {
      if (engine->cancelled_chains_.erase(chain_id) != 0) return;
      (*fn)();
      if (engine->cancelled_chains_.erase(chain_id) != 0) return;
      engine->schedule_at(engine->now_ + period, *this);
    }
  };
  schedule_at(start, Tick{this, chain_id, period,
                          std::make_shared<EventFn>(std::move(fn))});
  return chain_id;
}

bool Engine::cancel(EventId id) {
  if (id & kChainBit) {
    const EventId chain = id & ~kChainBit;
    if (chain == 0 || chain >= next_chain_) return false;
    cancelled_chains_.insert(id);
    return true;
  }
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
    release(top.slot);
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
  // Moved out before running: the callback may schedule into this slot
  // once it is free, or grow the slab under it.
  const EventFn fn = std::move(slots_[key.slot]);
  release(key.slot);
  now_ = key.at;
  ++events_processed_;
  fn();
  return true;
}

bool Engine::has_pending() const {
  pop_cancelled();
  return !heap_.empty();
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
