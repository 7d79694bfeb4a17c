#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "obs/registry.hpp"

namespace gridlb::sim {

bool SpinBarrier::arrive_and_wait() {
  if (killed_.load(std::memory_order_acquire)) return false;
  const std::uint64_t phase = phase_.load(std::memory_order_relaxed);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Everyone else is parked in the wait loop below (none touch
    // `arrived_` again until the phase advances), so the reset cannot race
    // with next-phase arrivals.
    arrived_.store(0, std::memory_order_relaxed);
    phase_.fetch_add(1, std::memory_order_release);
    return !killed_.load(std::memory_order_acquire);
  }
  int spins = 0;
  while (phase_.load(std::memory_order_acquire) == phase) {
    if (killed_.load(std::memory_order_acquire)) return false;
    if (++spins > 1024) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  return !killed_.load(std::memory_order_acquire);
}

void SpinBarrier::kill() {
  killed_.store(true, std::memory_order_release);
  // Bump the phase so current waiters re-check the kill switch promptly.
  phase_.fetch_add(1, std::memory_order_release);
}

ShardedEngine::ShardedEngine(std::size_t shards, SimTime lookahead)
    : lookahead_(lookahead) {
  GRIDLB_REQUIRE(shards >= 1, "shard count must be at least 1");
  GRIDLB_REQUIRE(shards == 1 || lookahead > 0.0,
                 "a sharded simulation needs a positive lookahead");
  for (std::size_t s = 0; s < shards; ++s) {
    engines_.push_back(std::make_unique<Engine>(&shared_, s, shards));
    // Milestones need a lead only where windows exist.
    if (shards > 1) engines_.back()->set_milestone_lead(lookahead);
  }
  outbox_.resize(engines_.size());
}

void ShardedEngine::post(std::size_t dest, SimTime delay, EventFn fn) {
  GRIDLB_REQUIRE(dest < engines_.size(), "post to unknown shard");
  GRIDLB_REQUIRE(delay >= 0.0, "delay must be non-negative");
  Engine* const src = Engine::current();
  if (src == nullptr) {
    // Scenario setup, before the run: schedule directly (genesis lineage).
    engines_[dest]->schedule_in(delay, std::move(fn));
    return;
  }
  if (dest == src->shard_index()) {
    src->schedule_in(delay, std::move(fn));
    return;
  }
  GRIDLB_REQUIRE(delay >= lookahead_,
                 "cross-shard post inside the lookahead window");
  outbox_[src->shard_index()].push_back(
      Posted{dest, src->now() + delay, src->make_child_ref(), std::move(fn)});
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
  GRIDLB_REQUIRE(goal.done != nullptr && goal.remaining != nullptr,
                 "drive goal must be fully specified");
  horizon_ = horizon;
  if (!sharded()) {
    // A lone shard has no windows to open: the exact-stop loop is the
    // whole run, on the caller, without barriers or shard telemetry.
    run_serial(goal);
    return;
  }
  next_times_.assign(engines_.size(), kTimeInfinity);
  decision_ = Decision{};
  setup_telemetry();
  SpinBarrier barrier(static_cast<int>(engines_.size()));
  barrier_ = &barrier;
  // One thread per shard for the whole run: shard s runs on its own
  // std::jthread (shard 0 on the caller), synchronizing with spin barriers
  // between windows.  A throwing shard kills the barrier, so every other
  // shard unwinds too; the first exception is rethrown once all have
  // joined.
  std::vector<std::exception_ptr> errors(engines_.size());
  const auto run_shard = [&](std::size_t s) {
    try {
      worker(s, goal);
    } catch (...) {
      errors[s] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(engines_.size() - 1);
    for (std::size_t s = 1; s < engines_.size(); ++s) {
      try {
        threads.emplace_back(run_shard, s);
      } catch (...) {
        barrier.kill();  // let the shards already started unwind and join
        throw;
      }
    }
    run_shard(0);
  }
  barrier_ = nullptr;
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  if (telemetry_ != nullptr) {
    // Final partial window (decide() can finish mid-window) + sweep tally.
    flush_window_telemetry();
    for (std::size_t s = 0; s < engines_.size(); ++s) {
      obs::registry()
          ->counter("shard." + std::to_string(s) + ".events_swept")
          .add(engines_[s]->events_swept() - telemetry_->swept_base[s]);
    }
    telemetry_.reset();
  }
}

void ShardedEngine::setup_telemetry() {
  telemetry_.reset();
  obs::MetricsRegistry* const registry = obs::registry();
  if (registry == nullptr) return;
  auto telemetry = std::make_unique<Telemetry>();
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    const std::string prefix = "shard." + std::to_string(s) + ".";
    telemetry->events.push_back(&registry->counter(prefix + "events"));
    telemetry->barrier_wait_ns.push_back(
        &registry->counter(prefix + "barrier_wait_ns"));
    telemetry->outbox_messages.push_back(
        &registry->counter(prefix + "outbox_messages"));
    telemetry->serial_events.push_back(
        &registry->counter(prefix + "serial_events"));
    telemetry->window_base.push_back(engines_[s]->events_processed());
    telemetry->swept_base.push_back(engines_[s]->events_swept());
  }
  telemetry->windows = &registry->counter("shard.windows");
  telemetry->serial_entries = &registry->counter("shard.serial_entries");
  telemetry->load_imbalance = &registry->gauge("shard.load_imbalance");
  telemetry_ = std::move(telemetry);
}

void ShardedEngine::flush_window_telemetry() {
  Telemetry& telemetry = *telemetry_;
  std::uint64_t total = 0;
  std::uint64_t busiest = 0;
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    const std::uint64_t processed = engines_[s]->events_processed();
    const std::uint64_t delta = processed - telemetry.window_base[s];
    telemetry.window_base[s] = processed;
    telemetry.events[s]->add(delta);
    total += delta;
    busiest = std::max(busiest, delta);
  }
  if (total == 0) return;
  const double mean =
      static_cast<double>(total) / static_cast<double>(engines_.size());
  telemetry.imbalance_sum += static_cast<double>(busiest) / mean;
  ++telemetry.imbalance_windows;
  telemetry.load_imbalance->set(
      telemetry.imbalance_sum /
      static_cast<double>(telemetry.imbalance_windows));
}

bool ShardedEngine::await(std::size_t s) {
  if (telemetry_ == nullptr) return barrier_->arrive_and_wait();
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const bool alive = barrier_->arrive_and_wait();
  telemetry_->barrier_wait_ns[s]->add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           start)
          .count()));
  return alive;
}

void ShardedEngine::worker(std::size_t s, const DriveGoal& goal) {
  try {
    Engine& engine = *engines_[s];
    for (;;) {
      next_times_[s] = engine.next_event_time();
      if (!await(s)) return;  // A: next-times published
      if (s == 0) decide(goal);
      if (!await(s)) return;  // B: decision published
      const Decision decision = decision_;
      if (decision.kind == DecisionKind::kFinished) return;
      if (decision.kind == DecisionKind::kParallel) {
        engine.run_window(decision.bound);
      } else if (s == 0) {
        run_serial(goal);
      }
      if (!await(s)) return;  // C: window quiesced
      if (s == 0 && decision.kind == DecisionKind::kParallel) seal_window();
      if (!await(s)) return;  // D: ranks + mail sealed
    }
  } catch (...) {
    // Release every other shard (they observe the kill and unwind
    // normally) and let drive() surface this exception.
    barrier_->kill();
    throw;
  }
}

void ShardedEngine::decide(const DriveGoal& goal) {
  if (goal.done()) {
    decision_ = Decision{DecisionKind::kFinished, 0.0};
    return;
  }
  SimTime t_min = kTimeInfinity;
  for (const SimTime t : next_times_) t_min = std::min(t_min, t);
  if (goal.until < kTimeInfinity && t_min >= goal.until) {
    // Open-loop cutoff: no pending event anywhere is earlier than `until`,
    // so the executed-event set (everything < until) is complete.
    decision_ = Decision{DecisionKind::kFinished, 0.0};
    return;
  }
  GRIDLB_REQUIRE(t_min < kTimeInfinity, "event queue drained with tasks missing");
  GRIDLB_REQUIRE(t_min <= horizon_, "experiment exceeded the horizon limit");
  // Clamping the window to `until` keeps cut-off events out of the shard
  // windows entirely, so a time-bounded run executes the identical event
  // set at any shard count.
  const SimTime bound = std::min(t_min + lookahead_, goal.until);
  const std::uint64_t remaining = goal.remaining();
  std::uint64_t due = 0;
  for (const auto& engine : engines_) {
    due += engine->count_milestones_below(bound, remaining - due);
    if (due >= remaining) break;
  }
  // If every still-needed completion could fire inside this window, run it
  // serially so the simulation stops at exactly the same event as a
  // single-queue run would.
  decision_ = Decision{remaining > 0 && due >= remaining
                           ? DecisionKind::kSerial
                           : DecisionKind::kParallel,
                       bound};
}

void ShardedEngine::run_serial(const DriveGoal& goal) {
  if (telemetry_ != nullptr) {
    // Close the parallel-window accounting before serial stepping so the
    // tail's events land in shard.<s>.serial_events, not a window delta.
    flush_window_telemetry();
    telemetry_->serial_entries->add(1);
  }
  for (auto& engine : engines_) engine->set_serial_finalize(true);
  while (!goal.done()) {
    std::size_t best = engines_.size();
    Engine::PeekKey best_key{};
    for (std::size_t s = 0; s < engines_.size(); ++s) {
      const auto key = engines_[s]->peek_key();
      if (key.has_value() && (best == engines_.size() || *key < best_key)) {
        best = s;
        best_key = *key;
      }
    }
    if (best == engines_.size()) {
      GRIDLB_REQUIRE(goal.until < kTimeInfinity,
                     "event queue drained with tasks missing");
      break;
    }
    if (best_key.at >= goal.until) break;  // open-loop cutoff
    GRIDLB_REQUIRE(best_key.at <= horizon_,
                   "experiment exceeded the horizon limit");
    engines_[best]->step();
    drain_outboxes();
  }
  // Back to window sealing; a lone shard has no windows and stays serial.
  if (sharded()) {
    for (auto& engine : engines_) engine->set_serial_finalize(false);
  }
  if (telemetry_ != nullptr) {
    for (std::size_t s = 0; s < engines_.size(); ++s) {
      const std::uint64_t processed = engines_[s]->events_processed();
      const std::uint64_t delta = processed - telemetry_->window_base[s];
      telemetry_->window_base[s] = processed;
      telemetry_->events[s]->add(delta);
      telemetry_->serial_events[s]->add(delta);
    }
  }
}

void ShardedEngine::seal_window() {
  if (telemetry_ != nullptr) {
    telemetry_->windows->add(1);
    flush_window_telemetry();
  }
  // K-way merge of the shards' window execution logs in lineage-key order,
  // assigning global ranks.  By the time a record reaches the head of its
  // shard's log its parent is always finalized: same-shard parents appear
  // earlier in the log, cross-shard parents executed in an earlier
  // (already-sealed) window.
  std::vector<std::size_t> pos(engines_.size(), 0);
  std::vector<std::vector<ExecRecordPtr>*> logs(engines_.size());
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    logs[s] = &engines_[s]->window_records();
  }
  const auto precedes = [](const ExecRecord& a, const ExecRecord& b) {
    GRIDLB_ASSERT(a.parent.is_final() && b.parent.is_final());
    if (a.at != b.at) return a.at < b.at;
    if (a.parent.rank() != b.parent.rank()) {
      return a.parent.rank() < b.parent.rank();
    }
    return a.idx < b.idx;
  };
  for (;;) {
    std::size_t best = engines_.size();
    for (std::size_t s = 0; s < engines_.size(); ++s) {
      if (pos[s] >= logs[s]->size()) continue;
      if (best == engines_.size() ||
          precedes(*(*logs[s])[pos[s]], *(*logs[best])[pos[best]])) {
        best = s;
      }
    }
    if (best == engines_.size()) break;
    ExecRecord& record = *(*logs[best])[pos[best]++];
    record.rank = shared_.next_gidx++;
    record.finalized = true;
    // Genealogy chains stay bounded.
    record.parent = LineageRef::finalized(record.parent.rank());
  }
  for (auto* log : logs) log->clear();
  drain_outboxes();
}

void ShardedEngine::drain_outboxes() {
  for (std::size_t src = 0; src < outbox_.size(); ++src) {
    auto& box = outbox_[src];
    if (telemetry_ != nullptr && !box.empty()) {
      telemetry_->outbox_messages[src]->add(box.size());
    }
    for (auto& posted : box) {
      engines_[posted.dest]->inject(posted.at, std::move(posted.ref),
                                    std::move(posted.fn));
    }
    box.clear();
  }
}

}  // namespace gridlb::sim
