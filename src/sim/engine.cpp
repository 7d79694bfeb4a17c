#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/assert.hpp"
#include "common/sim_clock.hpp"

namespace gridlb::sim {

namespace {
// Periodic-chain ids carry the top bit so they never collide with (or
// linger in the cancellation set of) queued event ids.
constexpr EventId kChainBit = EventId{1} << 63;

thread_local Engine* tls_current_engine = nullptr;
}  // namespace

Engine::Engine()
    : own_shared_(std::make_unique<LineageShared>()),
      shared_(own_shared_.get()),
      serial_finalize_(true) {}

Engine::Engine(LineageShared* shared, std::size_t shard_index,
               std::size_t shard_count)
    : shared_(shared),
      shard_index_(shard_index),
      trace_shard_(shard_count > 1 ? static_cast<std::uint16_t>(shard_index + 1)
                                   : std::uint16_t{0}),
      serial_finalize_(shard_count == 1) {
  GRIDLB_REQUIRE(shared != nullptr, "a shard engine needs shared state");
}

Engine* Engine::current() { return tls_current_engine; }

bool Engine::executing() const { return tls_current_engine == this; }

const LineageRef& Engine::current_lineage() {
  GRIDLB_ASSERT(executing());
  if (!exec_ranked_) {
    exec_ranked_ = true;
    if (serial_finalize_) {
      exec_self_ = LineageRef::finalized(shared_->next_gidx++);
    } else {
      auto record = std::make_shared<ExecRecord>();
      record->at = now_;
      record->parent = exec_parent_;
      record->idx = exec_idx_;
      record->rank = local_exec_seq_;
      window_records_.push_back(record);
      exec_self_ = LineageRef(std::move(record));
    }
  }
  return exec_self_;
}

Engine::ChildRef Engine::make_child_ref() {
  if (executing()) return ChildRef{current_lineage(), child_counter_++};
  // Outside any event: a child of genesis.  Cross-engine scheduling from
  // inside an event must go through the coordinator instead — a genesis
  // child created mid-event would jump the global order.
  GRIDLB_REQUIRE(tls_current_engine == nullptr,
                 "cross-shard schedule must go through the coordinator");
  LineageShared& shared = *shared_;
  if (shared.genesis_rank + 1 != shared.next_gidx) {
    // Events were ranked since this genesis opened: rank a new one after.
    shared.genesis_rank = shared.next_gidx++;
    shared.next_setup_idx = 0;
  }
  return ChildRef{LineageRef::finalized(shared.genesis_rank),
                  shared.next_setup_idx++};
}

std::uint64_t Engine::parent_order(std::uintptr_t parent) {
  if (parent & 1u) return parent >> 1;
  const auto* record = reinterpret_cast<const ExecRecord*>(parent);
  return record->finalized ? record->rank : kProvisional | record->rank;
}

bool Engine::Later::operator()(const Key& a, const Key& b) const {
  if (a.at != b.at) return a.at > b.at;
  if (a.parent != b.parent) {
    const std::uint64_t pa = parent_order(a.parent);
    const std::uint64_t pb = parent_order(b.parent);
    if (pa != pb) return pa > pb;
  }
  return a.idx > b.idx;
}

EventId Engine::enqueue(SimTime at, ChildRef ref, EventFn&& fn,
                        bool milestone) {
  std::uint32_t index;
  if (free_slots_.empty()) {
    GRIDLB_REQUIRE(slots_.size() < UINT32_MAX, "too many pending events");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = next_id_++;
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.id = id;
  slot.milestone = milestone;
  slot.parent = ref.parent.take_record();
  const std::uintptr_t parent =
      slot.parent == nullptr
          ? static_cast<std::uintptr_t>(ref.parent.rank() << 1) | 1u
          : reinterpret_cast<std::uintptr_t>(slot.parent.get());
  heap_.push_back(Key{at, parent, ref.idx, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (milestone) {
    milestones_.push_back(at);
    std::push_heap(milestones_.begin(), milestones_.end(), std::greater<>{});
  }
  return id;
}

void Engine::release(std::uint32_t index) const {
  Slot& slot = slots_[index];
  if (slot.milestone) {
    std::pop_heap(milestones_.begin(), milestones_.end(), std::greater<>{});
    milestones_.pop_back();
  }
  slot.fn = nullptr;
  slot.parent.reset();
  free_slots_.push_back(index);
}

EventId Engine::schedule(SimTime at, EventFn&& fn, bool milestone) {
  GRIDLB_REQUIRE(std::isfinite(at), "event time must be finite");
  GRIDLB_REQUIRE(at >= now_, "cannot schedule an event in the past");
  GRIDLB_REQUIRE(fn != nullptr, "event callback must be set");
  return enqueue(at, make_child_ref(), std::move(fn), milestone);
}

EventId Engine::schedule_at(SimTime at, EventFn fn) {
  return schedule(at, std::move(fn), false);
}

EventId Engine::schedule_in(SimTime delay, EventFn fn) {
  GRIDLB_REQUIRE(delay >= 0.0, "delay must be non-negative");
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Engine::schedule_milestone_at(SimTime at, EventFn fn) {
  // The lead guarantee is what lets the coordinator count due milestones at
  // a barrier and know the stop predicate cannot flip inside the window it
  // is about to open.
  GRIDLB_REQUIRE(at >= now_ + milestone_lead_,
                 "milestone scheduled inside the lookahead window");
  return schedule(at, std::move(fn), true);
}

std::uint64_t Engine::count_milestones_below(SimTime bound,
                                             std::uint64_t cap) const {
  // In the min-heap a time at or past `bound` roots a subtree that is too,
  // so the walk stops at the first such node on every path.
  std::uint64_t count = 0;
  const auto visit = [&](const auto& self, std::size_t i) -> void {
    if (i >= milestones_.size() || count >= cap || milestones_[i] >= bound) {
      return;
    }
    ++count;
    self(self, 2 * i + 1);
    self(self, 2 * i + 2);
  };
  visit(visit, 0);
  return count;
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
  if (id == 0 || id >= next_id_) return false;
  cancelled_.insert(id);
  return true;
}

void Engine::pop_cancelled() const {
  // O(1) steady state: once every recorded cancellation has been matched
  // against its queue entry the set is empty and the sweep is a single
  // branch, no matter how often next_event_time() is polled.
  while (!cancelled_.empty() && !heap_.empty()) {
    const std::uint32_t index = heap_.front().slot;
    if (cancelled_.erase(slots_[index].id) == 0) return;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    release(index);
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
  Slot& slot = slots_[key.slot];
  const EventFn fn = std::move(slot.fn);
  exec_parent_ = key.parent & 1u ? LineageRef::finalized(key.parent >> 1)
                                 : LineageRef(std::move(slot.parent));
  release(key.slot);
  now_ = key.at;
  // Publish the clock for consumers without an engine reference (logger
  // sim-time prefixes, PACE cache trace events) and the executing shard
  // for trace-event stamping (0 = unsharded).
  simclock::publish(now_);
  simclock::publish_shard(trace_shard_);
  ++events_processed_;
  // Restored on every exit, a throwing callback included: a stale pointer
  // would make this thread's next engine reject setup-time schedules.
  struct CurrentScope {
    Engine* const previous = tls_current_engine;
    explicit CurrentScope(Engine* engine) { tls_current_engine = engine; }
    ~CurrentScope() { tls_current_engine = previous; }
  } scope(this);
  exec_idx_ = key.idx;
  exec_self_ = LineageRef();
  exec_ranked_ = false;
  ++local_exec_seq_;
  child_counter_ = 0;
  fn();
  return true;
}

void Engine::inject(SimTime at, ChildRef ref, EventFn fn) {
  GRIDLB_REQUIRE(std::isfinite(at), "event time must be finite");
  GRIDLB_REQUIRE(at >= now_, "injected event is before the shard clock");
  GRIDLB_REQUIRE(ref.parent.is_final(), "injected event's parent is unsealed");
  GRIDLB_REQUIRE(fn != nullptr, "event callback must be set");
  // The parent is sealed by now: the key carries its plain rank.
  ref.parent = LineageRef::finalized(ref.parent.rank());
  enqueue(at, std::move(ref), std::move(fn), false);
}

void Engine::run_window(SimTime bound) {
  for (;;) {
    pop_cancelled();
    if (heap_.empty() || heap_.front().at >= bound) return;
    step();
  }
}

std::optional<Engine::PeekKey> Engine::peek_key() const {
  pop_cancelled();
  if (heap_.empty()) return std::nullopt;
  const Key& top = heap_.front();
  const std::uint64_t parent = parent_order(top.parent);
  GRIDLB_ASSERT(parent < kProvisional);  // every parent is finalized
  return PeekKey{top.at, parent, top.idx};
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
  simclock::publish(now_);
}

}  // namespace gridlb::sim
