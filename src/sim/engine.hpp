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
// *lineage key*
//
//     (at, parent-event's global execution rank, child index)
//
// where the parent is the event whose callback scheduled this one and the
// child index counts that callback's schedules in call order.  On one
// queue this is exactly scheduling order (children of an earlier-executed
// parent were pushed first), and because it names no queue it survives
// partitioning the simulation across shards (sharded_engine.hpp), which is
// what makes shard-count invariance possible (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace gridlb::sim {

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;

/// Callback invoked when an event fires.  The engine's clock already shows
/// the event's timestamp when the callback runs.
using EventFn = std::function<void()>;

struct ExecRecord;
using ExecRecordPtr = std::shared_ptr<ExecRecord>;

/// A reference to a parent event's place in the lineage order: its global
/// execution rank once that parent is finalized, or its execution record
/// while the parent is provisional (it ran in a sharded window that is not
/// yet sealed, so its rank is still a shard-local execution index).  Only
/// the provisional form allocates or reference-counts; a standalone engine
/// and a lone shard finalize every rank as the event runs and never make
/// one.
class LineageRef {
 public:
  LineageRef() = default;
  /// The finalized rank `rank`.
  static LineageRef finalized(std::uint64_t rank) {
    LineageRef ref;
    ref.rank_ = rank;
    return ref;
  }
  /// `record`'s rank; holds the record only if it is still provisional.
  explicit LineageRef(ExecRecordPtr record);

  /// True once the parent's rank is global and final.
  [[nodiscard]] bool is_final() const;
  /// The parent's rank: global once is_final(), shard-local before.
  [[nodiscard]] std::uint64_t rank() const;
  /// Moves out the provisional parent's record (null for a plain rank).
  [[nodiscard]] ExecRecordPtr take_record() { return std::move(record_); }

 private:
  std::uint64_t rank_ = 0;
  ExecRecordPtr record_;
};

/// Execution record of an event that ran provisionally, in a sharded
/// window.  Its children's lineage references point here so the comparator
/// can consult the parent's rank.  `rank` starts as the shard-local
/// execution index and is rewritten to a global rank (gidx) when the shard
/// coordinator seals the window the event ran in; `finalized` flips at the
/// same moment and `parent` drops to a plain rank so genealogy chains do
/// not accumulate.
struct ExecRecord {
  SimTime at = 0.0;
  LineageRef parent;
  std::uint64_t idx = 0;
  std::uint64_t rank = 0;
  bool finalized = false;
};

inline LineageRef::LineageRef(ExecRecordPtr record) {
  if (record->finalized) {
    rank_ = record->rank;
  } else {
    record_ = std::move(record);
  }
}

inline bool LineageRef::is_final() const {
  return record_ == nullptr || record_->finalized;
}

inline std::uint64_t LineageRef::rank() const {
  return record_ == nullptr ? rank_ : record_->rank;
}

/// State shared by every shard engine of one simulation: the genesis rank
/// (parent of all schedules made outside any event, so single-threaded
/// scenario construction keeps its exact serial order regardless of which
/// shard each call lands on) and the global rank counter.  An outside
/// schedule made after events were ranked gets a fresh genesis ranked
/// after them, so it joins equal-time ties last, as on one queue.
struct LineageShared {
  std::uint64_t genesis_rank = 0;    // the root of every lineage chain
  std::uint64_t next_setup_idx = 0;  // child index under genesis
  std::uint64_t next_gidx = 1;       // next global execution rank
};

class Engine {
 public:
  /// A standalone engine: owns its lineage state and finalizes each
  /// executed event's rank immediately.
  Engine();
  /// Shard `shard_index` of `shard_count` sharing `shared` (owned by the
  /// coordinator).  A lone shard (`shard_count` == 1) behaves exactly like
  /// a standalone engine, trace stamps included.
  Engine(LineageShared* shared, std::size_t shard_index,
         std::size_t shard_count);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.  Starts at 0.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now).  Returns a handle
  /// usable with `cancel`.
  EventId schedule_at(SimTime at, EventFn fn);

  /// Schedules `fn` after a relative delay `delay` (>= 0).
  EventId schedule_in(SimTime delay, EventFn fn);

  /// Schedules `fn` every `period` seconds starting at `start`.  The
  /// returned id cancels the *whole* periodic chain.
  EventId schedule_periodic(SimTime start, SimTime period, EventFn fn);

  /// Schedules a *milestone* event — one whose execution can flip the
  /// simulation's stop predicate (task completions).  The event must be at
  /// least the configured milestone lead in the future so the shard
  /// coordinator can count due milestones at a synchronization barrier and
  /// know the predicate cannot flip mid-window (the lead is 0 unless the
  /// engine is one of several shards).
  EventId schedule_milestone_at(SimTime at, EventFn fn);

  /// Cancels a pending event (or periodic chain).  Returns false if the
  /// event already fired or was never scheduled.
  bool cancel(EventId id);

  /// Runs until the queue is empty.
  void run();

  /// Runs events with timestamp <= `until`; the clock ends at `until` (or
  /// at the last event, whichever is later... the clock never runs
  /// backwards).
  void run_until(SimTime until);

  /// Processes exactly one event; returns false if the queue was empty.
  bool step();

  /// True if any events remain pending.
  [[nodiscard]] bool has_pending() const;

  /// Timestamp of the next pending event (kTimeInfinity when idle).
  [[nodiscard]] SimTime next_event_time() const;

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

  /// Number of cancelled entries discarded by the lazy sweep so far.
  [[nodiscard]] std::uint64_t events_swept() const { return events_swept_; }

  // --- Shard-coordinator interface ----------------------------------------

  /// The engine currently executing an event on this thread, or nullptr
  /// outside any callback.  Lets code reached from an event (network sends,
  /// completion sinks) find its shard without threading the engine through
  /// every call site.
  [[nodiscard]] static Engine* current();

  [[nodiscard]] std::size_t shard_index() const { return shard_index_; }

  /// Lineage reference of the event currently executing on this engine
  /// (inside a callback only); ranks the event on first use.  Completion
  /// sinks hold it as a ticket so buffered records can be ordered by
  /// finalized global rank later.
  const LineageRef& current_lineage();

  /// Lineage context for an event about to be handed to another shard:
  /// the currently-executing event's reference plus the next child index
  /// (genesis context outside any callback, i.e. during scenario setup).
  struct ChildRef {
    LineageRef parent;
    std::uint64_t idx = 0;
  };
  ChildRef make_child_ref();

  /// Enqueues a cross-shard event carrying an explicit lineage context.
  /// Only the shard coordinator calls this, between windows (single
  /// threaded), so no locking is needed.
  void inject(SimTime at, ChildRef ref, EventFn fn);

  /// Executes every pending event with `at < bound`.  The clock is left at
  /// the last executed event (not advanced to `bound`, matching how a
  /// serial run's clock sits at the last event).
  void run_window(SimTime bound);

  /// Lineage key of the next pending event, for the coordinator's serial
  /// exact-stop phase.  All parents are finalized by then, so the key is a
  /// plain triple.  nullopt when the queue is empty.
  struct PeekKey {
    SimTime at = 0.0;
    std::uint64_t parent_rank = 0;
    std::uint64_t idx = 0;
    [[nodiscard]] bool operator<(const PeekKey& other) const {
      if (at != other.at) return at < other.at;
      if (parent_rank != other.parent_rank) return parent_rank < other.parent_rank;
      return idx < other.idx;
    }
  };
  [[nodiscard]] std::optional<PeekKey> peek_key() const;

  /// Records of the events that ranked themselves (scheduled a child or
  /// took a ticket) during the current window, in execution order, with
  /// provisional ranks.  The coordinator merges these across shards to
  /// assign global ranks, then calls clear().
  [[nodiscard]] std::vector<ExecRecordPtr>& window_records() {
    return window_records_;
  }

  /// In serial-finalize mode each executed event is ranked from the shared
  /// global counter at once, with no record, instead of being buffered in
  /// window_records().  Always on for a standalone engine or a lone
  /// shard; the coordinator turns it on for the exact-stop tail.
  void set_serial_finalize(bool on) { serial_finalize_ = on; }

  /// Minimum lead time enforced by schedule_milestone_at (the coordinator
  /// sets this to the conservative lookahead).
  void set_milestone_lead(SimTime lead) { milestone_lead_ = lead; }

  /// Number of pending milestones strictly below `bound`, counting at most
  /// `cap` (the caller only cares whether the count reaches `cap`).
  [[nodiscard]] std::uint64_t count_milestones_below(SimTime bound,
                                                     std::uint64_t cap) const;

 private:
  // The queue is split in two.  The binary heap holds small POD keys —
  // everything the comparator reads, nothing it does not — so a sift moves
  // 32 bytes; the callback, id and milestone flag wait in a slab slot the
  // key names, reused through a free list, and are moved out once, when
  // the event fires.
  //
  // `parent` is the parent's lineage reference in one word: its finalized
  // rank as (rank << 1 | 1), or the address of its provisional ExecRecord
  // (8-aligned, so bit 0 is clear), which the slot keeps alive.
  struct Key {
    SimTime at;
    std::uintptr_t parent;
    std::uint64_t idx;  // child index under `parent`
    std::uint32_t slot;
  };
  struct Slot {
    EventFn fn;
    EventId id = 0;
    ExecRecordPtr parent;  // owns a provisional parent's record
    bool milestone = false;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const;
  };
  // Finalized ranks globally precede provisional ones: a provisional parent
  // executed in the current (unsealed) window, strictly after everything
  // already finalized.  Ranks stay below this bit.
  static constexpr std::uint64_t kProvisional = std::uint64_t{1} << 63;
  /// A key's parent as one number: its rank, with kProvisional set while
  /// the parent is provisional.
  static std::uint64_t parent_order(std::uintptr_t parent);

  EventId schedule(SimTime at, EventFn&& fn, bool milestone);
  EventId enqueue(SimTime at, ChildRef ref, EventFn&& fn, bool milestone);
  void release(std::uint32_t slot) const;  ///< clears a popped key's slot
  void pop_cancelled() const;
  [[nodiscard]] bool executing() const;  ///< inside one of this engine's events

  // The queue and `cancelled_` are mutable so const queries (has_pending,
  // next_event_time) can share pop_cancelled's lazy sweep: discarding a
  // cancelled top entry is observationally pure — the entry could never
  // fire — and beats the previous approach of copying the whole queue
  // (O(n) allocation + O(n log n) pops) per query.
  mutable std::vector<Key> heap_;
  mutable std::vector<Slot> slots_;
  mutable std::vector<std::uint32_t> free_slots_;
  // Times of the pending milestones (a min-heap).  An entry leaves when its
  // milestone fires or the sweep discards its cancelled event; either way
  // the event is the queue's earliest, so its time is the heap's minimum.
  mutable std::vector<SimTime> milestones_;
  mutable std::unordered_set<EventId> cancelled_;
  // Periodic chains: chain ids live in their own id space (top bit set) and
  // are never enqueued, so a cancelled chain id never lingers in
  // `cancelled_` poisoning the lazy sweep's O(1) fast path.
  std::unordered_set<EventId> cancelled_chains_;
  SimTime now_ = 0.0;
  EventId next_id_ = 1;
  EventId next_chain_ = 1;
  std::uint64_t events_processed_ = 0;
  mutable std::uint64_t events_swept_ = 0;

  // Lineage state.
  std::unique_ptr<LineageShared> own_shared_;  // standalone engines only
  LineageShared* shared_;
  std::size_t shard_index_ = 0;
  // Trace-event shard stamp: 1 + shard index when partitioned, 0 otherwise.
  std::uint16_t trace_shard_ = 0;
  bool serial_finalize_;
  LineageRef exec_parent_;        // parent of the event now (or last) run
  std::uint64_t exec_idx_ = 0;    // its child index under that parent
  LineageRef exec_self_;          // that event's own reference, once ranked
  bool exec_ranked_ = false;
  std::uint64_t child_counter_ = 0;
  std::uint64_t local_exec_seq_ = 0;  // provisional ranks within a window
  SimTime milestone_lead_ = 0.0;
  std::vector<ExecRecordPtr> window_records_;
};

}  // namespace gridlb::sim
