// Trace exporters.
//
// Two formats over the same TraceSnapshot:
//
//  * Chrome trace-event JSON — loadable in Perfetto (ui.perfetto.dev) or
//    chrome://tracing.  Layout: process 1 "grid" holds one thread track
//    per resource carrying task execution spans (ph "X"), request /
//    discovery / advertisement instants (ph "i") and a per-resource queue
//    depth counter (ph "C"); process 2 "ga" holds one track per resource
//    with GA run instants plus best/mean cost counters, each generation
//    offset by one microsecond so a whole run (which happens at a single
//    simulated instant) is still readable as a convergence curve.
//    Timestamps are virtual seconds scaled to microseconds.
//
//  * JSONL — one JSON object per line per event, every kind included.
//    The post-mortem format: trivially greppable and loadable from
//    pandas/jq without a trace viewer.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace gridlb::obs {

/// `resource_names[i]` labels AgentId i+1 ("S1".."S12"); resources beyond
/// the list fall back to "R<id>".
[[nodiscard]] std::string chrome_trace_json(
    const TraceSnapshot& snapshot,
    const std::vector<std::string>& resource_names);

[[nodiscard]] std::string events_jsonl(const TraceSnapshot& snapshot);

/// Writes `contents` to `path`; returns false on IO failure instead of
/// throwing, so the other outputs of a finished run are still written.
bool write_file(const std::string& path, const std::string& contents);

}  // namespace gridlb::obs
