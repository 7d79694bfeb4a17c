#include "obs/trace.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/sim_clock.hpp"

namespace gridlb::obs {

std::string_view kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kRequestSubmitted: return "request_submitted";
    case EventKind::kRequestDispatched: return "request_dispatched";
    case EventKind::kRequestRejected: return "request_rejected";
    case EventKind::kDiscoveryLocal: return "discovery_local";
    case EventKind::kDiscoveryNeighbour: return "discovery_neighbour";
    case EventKind::kDiscoveryUpper: return "discovery_upper";
    case EventKind::kDiscoveryFallback: return "discovery_fallback";
    case EventKind::kAdvertisementPull: return "advertisement_pull";
    case EventKind::kAdvertisementReceived: return "advertisement_received";
    case EventKind::kGaRunStarted: return "ga_run_started";
    case EventKind::kGaGeneration: return "ga_generation";
    case EventKind::kGaRunFinished: return "ga_run_finished";
    case EventKind::kTaskSpan: return "task_span";
    case EventKind::kTaskCompleted: return "task_completed";
    case EventKind::kQueueDepth: return "queue_depth";
    case EventKind::kMessageDropped: return "message_dropped";
    case EventKind::kMessageRetry: return "message_retry";
    case EventKind::kMessageExpired: return "message_expired";
    case EventKind::kDuplicateSuppressed: return "duplicate_suppressed";
    case EventKind::kAgentCrashed: return "agent_crashed";
    case EventKind::kAgentRestarted: return "agent_restarted";
    case EventKind::kTaskResubmitted: return "task_resubmitted";
    case EventKind::kPlacementDecision: return "placement_decision";
    case EventKind::kShardSample: return "shard_sample";
    case EventKind::kTaskMigrated: return "task_migrated";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity),
      epoch_(detail::g_epoch.fetch_add(1, std::memory_order_relaxed) + 1) {
  GRIDLB_REQUIRE(capacity_ >= 1, "ring capacity must be >= 1");
}

TraceRecorder::~TraceRecorder() {
  // Never destroy the installed recorder: stale thread-local ring pointers
  // would dangle.  Sessions uninstall first.
  GRIDLB_ASSERT(detail::g_recorder.load(std::memory_order_acquire) != this);
}

TraceRecorder::Ring* TraceRecorder::register_ring() {
  const std::lock_guard<std::mutex> lock(mutex_);
  rings_.push_back(std::make_unique<Ring>(capacity_));
  return rings_.back().get();
}

void TraceRecorder::record(const TraceEvent& event) {
  // Per-thread ring cache.  `epoch` ties the cached pointer to one
  // recorder generation: a new recorder (even one allocated at a recycled
  // address) carries a fresh epoch and so invalidates every thread's
  // cache on first use.
  struct ThreadRing {
    std::uint64_t epoch = 0;
    Ring* ring = nullptr;
  };
  thread_local ThreadRing tls;
  if (tls.epoch != epoch_) tls = ThreadRing{.epoch = epoch_};
  Ring*& ring = tls.ring;
  if (ring == nullptr) ring = register_ring();
  if (event.shard == 0) {
    // Stamp the executing engine shard (0 stays 0 on unsharded runs, so
    // the exporter layout of a classic run is untouched).
    TraceEvent stamped = event;
    stamped.shard = simclock::current_shard();
    ring->push(stamped);
    return;
  }
  ring->push(event);
}

std::size_t TraceRecorder::thread_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rings_.size();
}

TraceSnapshot TraceRecorder::snapshot() const {
  TraceSnapshot out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ring : rings_) {
      out.recorded += ring->pushed;
      const std::uint64_t capacity = ring->slots.size();
      const std::uint64_t kept = std::min(ring->pushed, capacity);
      out.dropped += ring->pushed - kept;
      // Oldest surviving event first so a stable sort preserves each
      // ring's emission order among equal timestamps.
      const std::uint64_t first = ring->pushed - kept;
      for (std::uint64_t i = first; i < ring->pushed; ++i) {
        out.events.push_back(
            ring->slots[static_cast<std::size_t>(i % capacity)]);
      }
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.at < y.at;
                   });
  return out;
}

namespace detail {

void install_recorder(TraceRecorder* recorder) {
  g_recorder.store(recorder, std::memory_order_release);
}

std::uint64_t current_epoch() {
  return g_epoch.load(std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace gridlb::obs
