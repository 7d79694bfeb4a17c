// Structured trace recorder.
//
// Every interesting moment in a run — a request moving through discovery,
// a GA invocation converging, a task occupying nodes — is a typed,
// timestamped TraceEvent.  Events are recorded into one ring buffer per
// thread so that
//   * disabled tracing costs one branch and one relaxed load per site
//     (plus the engine's unconditional relaxed clock store), and
//   * enabled tracing takes no locks on the steady-state path: each OS
//     thread owns its ring outright and registration happens once per
//     thread per session.
//
// Rings are bounded; when a ring wraps, the oldest events are overwritten
// and the loss is reported in the snapshot's `dropped` count.
//
// The recorder is installed globally (see obs.hpp's Session); merging and
// exporting happen after the simulation has quiesced, so snapshot() must
// not race with record() — in this codebase the shard threads are always
// joined when a run ends, which provides that guarantee.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
  // Engine-shard telemetry (DESIGN.md §14).
  kShardSample,        ///< sampler tick: extra=shard index (0-based),
                       ///< a=events, b=barrier-wait ns this interval
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
///   shard    — 1 + the engine shard the event was recorded on, or 0 when
///              the run is unsharded (or the emitting thread is outside
///              any shard).  Sites never set it: record() stamps it from
///              the executing engine's published shard (sim_clock.hpp), so
///              the chrome exporter can group a sharded run by shard.
struct TraceEvent {
  SimTime at = 0.0;
  EventKind kind = EventKind::kRequestSubmitted;
  std::uint16_t shard = 0;
  std::uint32_t extra = 0;
  std::uint64_t task = 0;
  std::uint64_t resource = 0;
  double a = 0.0;
  double b = 0.0;
};

/// Merged, time-sorted view of everything currently recorded.
struct TraceSnapshot {
  std::vector<TraceEvent> events;  ///< ascending `at`; stable within a ring
  std::uint64_t recorded = 0;      ///< events ever recorded
  std::uint64_t dropped = 0;       ///< overwritten by ring wrap-around
};

class TraceRecorder {
 public:
  /// Capacity is per thread, in events.
  explicit TraceRecorder(std::size_t capacity = 1u << 18);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Records one event into the calling thread's ring.  Lock-free except
  /// for the first event per thread (ring registration).
  void record(const TraceEvent& event);

  /// Merged snapshot of every ring, sorted ascending by timestamp.  Must
  /// only be called while no thread is concurrently recording.
  [[nodiscard]] TraceSnapshot snapshot() const;

  [[nodiscard]] std::size_t thread_count() const;

 private:
  struct Ring {
    explicit Ring(std::size_t capacity) : slots(capacity) {}
    std::vector<TraceEvent> slots;
    std::uint64_t pushed = 0;  ///< total events; slot index = pushed % size
    void push(const TraceEvent& event) {
      slots[static_cast<std::size_t>(pushed % slots.size())] = event;
      ++pushed;
    }
  };

  [[nodiscard]] Ring* register_ring();

  const std::size_t capacity_;
  const std::uint64_t epoch_;  ///< distinguishes recorder generations

  mutable std::mutex mutex_;   ///< guards `rings_` growth only
  std::vector<std::unique_ptr<Ring>> rings_;
};

namespace detail {
/// The installed recorder (null = tracing off) and its generation counter.
/// Loaded with acquire so a worker thread that observes the pointer also
/// observes the fully-constructed recorder.
inline std::atomic<TraceRecorder*> g_recorder{nullptr};
inline std::atomic<std::uint64_t> g_epoch{0};
/// Installation used by obs::Session; pass nullptr to uninstall.
void install_recorder(TraceRecorder* recorder);
[[nodiscard]] std::uint64_t current_epoch();
}  // namespace detail

/// The active recorder, or null when tracing is disabled.
[[nodiscard]] inline TraceRecorder* trace() {
  return detail::g_recorder.load(std::memory_order_acquire);
}

/// Records `event` iff tracing is enabled — the one-branch fast path every
/// instrumentation site goes through.
inline void emit(const TraceEvent& event) {
  if (TraceRecorder* recorder = trace()) recorder->record(event);
}

}  // namespace gridlb::obs
