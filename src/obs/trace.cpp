#include "obs/trace.hpp"

#include <algorithm>

#include "common/assert.hpp"

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
    case EventKind::kTaskMigrated: return "task_migrated";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(std::size_t capacity) : slots_(capacity) {
  GRIDLB_REQUIRE(capacity >= 1, "ring capacity must be >= 1");
}

void TraceRecorder::record(const TraceEvent& event) {
  slots_[static_cast<std::size_t>(pushed_ % slots_.size())] = event;
  ++pushed_;
}

TraceSnapshot TraceRecorder::snapshot() const {
  TraceSnapshot out;
  const std::uint64_t capacity = slots_.size();
  const std::uint64_t kept = std::min(pushed_, capacity);
  out.recorded = pushed_;
  out.dropped = pushed_ - kept;
  // Oldest surviving event first so the stable sort keeps emission order
  // among equal timestamps.
  out.events.reserve(static_cast<std::size_t>(kept));
  for (std::uint64_t i = pushed_ - kept; i < pushed_; ++i) {
    out.events.push_back(slots_[static_cast<std::size_t>(i % capacity)]);
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.at < y.at;
                   });
  return out;
}

}  // namespace gridlb::obs
