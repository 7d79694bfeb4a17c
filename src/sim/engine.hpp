// Discrete-event simulation engine.
//
// This is the substrate that replaces the paper's physical testbed: every
// timed behaviour in the system — request arrivals at the portal, periodic
// service-advertisement pulls, message delivery between agents, task
// completions on processing nodes — is an event on this queue.  The paper's
// "test mode" ("tasks are not actually executed and the predictive
// application execution times are scheduled and assumed to be accurate")
// maps directly onto virtual-time task-completion events.
//
// Determinism: events at equal times fire in scheduling order, so a fixed
// workload seed yields bit-identical runs.  The one tie-break rule is the
// key (at, seq), where `seq` numbers every schedule in call order
// (DESIGN.md §13).  A run owns exactly one engine.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "sim/slab.hpp"

namespace gridlb::sim {

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;

/// Callback invoked when an event fires.  The engine's clock already shows
/// the event's timestamp when the callback runs.
using EventFn = std::function<void()>;

/// Callback of a periodic chain: returns whether the chain goes on.
using PeriodicFn = std::function<bool()>;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.  Starts at 0.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now).  Returns a handle
  /// usable with `cancel`.
  EventId schedule_at(SimTime at, EventFn fn);

  /// Schedules `fn` after a relative delay `delay` (>= 0).
  EventId schedule_in(SimTime delay, EventFn fn);

  /// Runs `fn` at `start`, then every `period` seconds for as long as it
  /// returns true.  The chain's owner ends it: there is no handle, and a
  /// tick that returns false is still one processed event.
  void schedule_periodic(SimTime start, SimTime period, PeriodicFn fn);

  /// Cancels a pending one-shot event.  Returns false if the event
  /// already fired or was never scheduled.
  bool cancel(EventId id);

  /// Runs until the queue is empty.
  void run();

  /// Runs events with timestamp <= `until`; the clock ends at `until` (or
  /// at the last event, whichever is later... the clock never runs
  /// backwards).
  void run_until(SimTime until);

  /// Processes exactly one event; returns false if the queue was empty.
  bool step();

  /// Timestamp of the next pending event (kTimeInfinity when idle).
  [[nodiscard]] SimTime next_event_time() const;

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

  /// Number of cancelled entries discarded by the lazy sweep so far.
  [[nodiscard]] std::uint64_t events_swept() const { return events_swept_; }

 private:
  // The queue is split in two.  The binary heap holds small POD keys —
  // everything the comparator reads, nothing it does not — so a sift moves
  // 24 bytes; the callback waits in a slab slot the key names, reused
  // through a free list, and is moved out once, when the event fires.  An
  // event's id is its `seq`.
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void pop_cancelled() const;

  // The queue and `cancelled_` are mutable so the const query
  // next_event_time can share pop_cancelled's lazy sweep: discarding a
  // cancelled top entry is observationally pure — the entry could never
  // fire — and beats the previous approach of copying the whole queue
  // (O(n) allocation + O(n log n) pops) per query.
  mutable std::vector<Key> heap_;
  mutable Slab<EventFn> slots_;
  mutable std::unordered_set<EventId> cancelled_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_processed_ = 0;
  mutable std::uint64_t events_swept_ = 0;
};

}  // namespace gridlb::sim
