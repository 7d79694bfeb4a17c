// Structured trace recorder.
//
// Every interesting moment in a run — a request moving through discovery,
// a GA invocation converging, a task occupying nodes — is a typed,
// timestamped TraceEvent.  A run executes on the one thread that drives
// it, so the recorder is one bounded ring buffer with no locks: disabled
// tracing costs one thread-local load and one branch per site, and
// enabled tracing one slot write.
//
// When the ring wraps, the oldest events are overwritten and the loss is
// reported in the snapshot's `dropped` count.
//
// The recorder is installed for the thread that constructs its Session
// (see obs.hpp); no other thread can reach it.  snapshot() sorts a copy,
// so it may run at any point between records.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace gridlb::obs {

enum class EventKind : std::uint8_t {
  // Request lifecycle.
  kRequestSubmitted,   ///< portal hands the request to its entry agent
  kRequestDispatched,  ///< a discovery decision placed it on a local queue
  kRequestRejected,    ///< strict-failure drop (no grid resource matches)
  // Discovery hops.
  kDiscoveryLocal,     ///< own service met the requirement
  kDiscoveryNeighbour, ///< forwarded to the best-match neighbour
  kDiscoveryUpper,     ///< escalated to the upper agent
  kDiscoveryFallback,  ///< head-of-hierarchy best-effort dispatch
  // Advertisement.
  kAdvertisementPull,      ///< periodic pull sent to all neighbours
  kAdvertisementReceived,  ///< service document landed in the ACT
  // GA scheduling.
  kGaRunStarted,
  kGaGeneration,       ///< one generation's best/mean cost
  kGaRunFinished,
  // Task execution.
  kTaskSpan,           ///< committed execution: occupies nodes start..end
  kTaskCompleted,
  // Scheduler queue.
  kQueueDepth,         ///< pending-count sample after a queue change
  // Fault injection & tolerance (DESIGN.md §10).
  kMessageDropped,     ///< network loss: a=from b=to endpoint, extra=reason
  kMessageRetry,       ///< reliable sender re-armed after an ack timeout
  kMessageExpired,     ///< retry budget exhausted; sender gave up
  kDuplicateSuppressed,///< at-least-once delivery deduplicated by msgid
  kAgentCrashed,       ///< agent process failed (endpoint down)
  kAgentRestarted,     ///< agent process came back (fresh ACT)
  kTaskResubmitted,    ///< portal re-injected a task stranded on a crash
  // Stateless placement (DESIGN.md §15).
  kPlacementDecision,  ///< hashed placement: resource=winning target,
                       ///< a=winning straw draw, b=live map weight,
                       ///< extra=target index
  // Queue migration (DESIGN.md §16).
  kTaskMigrated,       ///< queued task re-homed: resource=target agent,
                       ///< a=own backlog, b=target backlog, extra=hops
};

/// Short stable identifier ("ga_generation", "task_span", …) used by the
/// JSONL exporter and tests.
[[nodiscard]] std::string_view kind_name(EventKind kind);

/// Fixed-size POD event.  Field meaning depends on `kind`:
///   task     — TaskId::value() of the request/task involved (0 if none)
///   resource — AgentId::value() of the agent/resource involved (0 if none)
///   a, b     — kind-specific payload, e.g. for kTaskSpan a=start b=end;
///              for kGaGeneration a=best cost b=mean cost; for
///              kDiscoveryNeighbour a=estimated completion b=advertisement
///              staleness at use; for kQueueDepth a=depth
///   extra    — small kind-specific integer (generation index, node count,
///              hop count, …)
struct TraceEvent {
  SimTime at = 0.0;
  EventKind kind = EventKind::kRequestSubmitted;
  std::uint32_t extra = 0;
  std::uint64_t task = 0;
  std::uint64_t resource = 0;
  double a = 0.0;
  double b = 0.0;
};

/// Time-sorted view of everything currently recorded.
struct TraceSnapshot {
  std::vector<TraceEvent> events;  ///< ascending `at`; emission order on ties
  std::uint64_t recorded = 0;      ///< events ever recorded
  std::uint64_t dropped = 0;       ///< overwritten by ring wrap-around
};

class TraceRecorder {
 public:
  /// Capacity of the ring, in events.
  explicit TraceRecorder(std::size_t capacity = 1u << 18);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Records one event, overwriting the oldest once the ring is full.
  void record(const TraceEvent& event);

  /// The surviving events sorted ascending by timestamp.
  [[nodiscard]] TraceSnapshot snapshot() const;

 private:
  std::vector<TraceEvent> slots_;
  std::uint64_t pushed_ = 0;  ///< total events; slot index = pushed_ % size
};

namespace detail {
/// This thread's installed recorder (null = tracing off).
inline constinit thread_local TraceRecorder* g_recorder = nullptr;
}  // namespace detail

/// The calling thread's recorder, or null when tracing is disabled.
[[nodiscard]] inline TraceRecorder* trace() { return detail::g_recorder; }

/// Records `event` iff tracing is enabled — the one-branch fast path every
/// instrumentation site goes through.
inline void emit(const TraceEvent& event) {
  if (TraceRecorder* recorder = trace()) recorder->record(event);
}

}  // namespace gridlb::obs
