#include "sim/engine.hpp"

#include <cmath>
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

const ExecRecordPtr& Engine::current_record() {
  GRIDLB_ASSERT(executing());
  if (!exec_record_) {
    exec_record_ = std::make_shared<ExecRecord>();
    exec_record_->at = now_;
    exec_record_->idx = exec_idx_;
    if (serial_finalize_) {
      exec_record_->rank = shared_->next_gidx++;
      exec_record_->finalized = true;
    } else {
      exec_record_->parent = exec_parent_;
      exec_record_->rank = local_exec_seq_;
      window_records_.push_back(exec_record_);
    }
  }
  return exec_record_;
}

Engine::ChildRef Engine::make_child_ref() {
  if (executing()) return ChildRef{current_record(), child_counter_++};
  // Outside any event: a child of genesis.  Cross-engine scheduling from
  // inside an event must go through the coordinator instead — a genesis
  // child created mid-event would jump the global order.
  GRIDLB_REQUIRE(tls_current_engine == nullptr,
                 "cross-shard schedule must go through the coordinator");
  LineageShared& shared = *shared_;
  if (shared.genesis->rank + 1 != shared.next_gidx) {
    // Events were ranked since this genesis opened: rank a new one after.
    shared.genesis = std::make_shared<ExecRecord>();
    shared.genesis->rank = shared.next_gidx++;
    shared.genesis->finalized = true;
    shared.next_setup_idx = 0;
  }
  return ChildRef{shared.genesis, shared.next_setup_idx++};
}

EventId Engine::schedule_at(SimTime at, EventFn fn) {
  GRIDLB_REQUIRE(std::isfinite(at), "event time must be finite");
  GRIDLB_REQUIRE(at >= now_, "cannot schedule an event in the past");
  GRIDLB_REQUIRE(fn != nullptr, "event callback must be set");
  const EventId id = next_id_++;
  ChildRef ref = make_child_ref();
  queue_.push(Entry{at, id, std::move(fn), std::move(ref.parent), ref.idx});
  return id;
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
  pending_milestones_.insert(at);
  return schedule_at(at, [this, at, fn = std::move(fn)]() {
    pending_milestones_.erase(pending_milestones_.find(at));
    fn();
  });
}

std::uint64_t Engine::count_milestones_below(SimTime bound,
                                             std::uint64_t cap) const {
  std::uint64_t count = 0;
  for (auto it = pending_milestones_.begin();
       it != pending_milestones_.end() && *it < bound && count < cap; ++it) {
    ++count;
  }
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
  if (cancelled_.empty()) return;
  while (!queue_.empty() && cancelled_.contains(queue_.top().id)) {
    cancelled_.erase(queue_.top().id);
    queue_.pop();
    ++events_swept_;
  }
}

bool Engine::step() {
  pop_cancelled();
  if (queue_.empty()) return false;
  // Copy out before popping: the callback may schedule new events and the
  // top() reference would dangle across a push.
  Entry entry = queue_.top();
  queue_.pop();
  GRIDLB_ASSERT(entry.at >= now_);
  now_ = entry.at;
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
  exec_parent_ = std::move(entry.parent);
  exec_idx_ = entry.idx;
  exec_record_.reset();
  ++local_exec_seq_;
  child_counter_ = 0;
  entry.fn();
  return true;
}

void Engine::inject(SimTime at, ChildRef ref, EventFn fn) {
  GRIDLB_REQUIRE(std::isfinite(at), "event time must be finite");
  GRIDLB_REQUIRE(at >= now_, "injected event is before the shard clock");
  GRIDLB_REQUIRE(ref.parent != nullptr, "injected event needs a lineage ref");
  GRIDLB_REQUIRE(fn != nullptr, "event callback must be set");
  queue_.push(Entry{at, next_id_++, std::move(fn), std::move(ref.parent),
                    ref.idx});
}

void Engine::run_window(SimTime bound) {
  for (;;) {
    pop_cancelled();
    if (queue_.empty() || queue_.top().at >= bound) return;
    step();
  }
}

std::optional<Engine::PeekKey> Engine::peek_key() const {
  pop_cancelled();
  if (queue_.empty()) return std::nullopt;
  const Entry& top = queue_.top();
  GRIDLB_ASSERT(top.parent != nullptr && top.parent->finalized);
  return PeekKey{top.at, top.parent->rank, top.idx};
}

bool Engine::has_pending() const {
  pop_cancelled();
  return !queue_.empty();
}

SimTime Engine::next_event_time() const {
  pop_cancelled();
  return queue_.empty() ? kTimeInfinity : queue_.top().at;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(SimTime until) {
  GRIDLB_REQUIRE(until >= now_, "run_until target is in the past");
  for (;;) {
    pop_cancelled();
    if (queue_.empty() || queue_.top().at > until) break;
    step();
  }
  now_ = until;
  simclock::publish(now_);
}

}  // namespace gridlb::sim
