// Windowed time series of grid activity.
//
// Table 3 reports whole-run aggregates; to see *when* utilisation and
// balance diverge (queue build-up on overloaded resources, the agent
// mechanism spreading load), the sampler buckets completed executions
// into fixed windows and reports per-resource busy fractions over time.
// Used by bench/timeline_utilisation and exportable as CSV.
#pragma once

#include <string>
#include <vector>

#include "metrics/metrics.hpp"

namespace gridlb::metrics {

/// One resource's busy fraction per window.
struct UtilisationSeries {
  std::string label;
  int node_count = 0;
  std::vector<double> utilisation;  ///< per window, in [0, 1]
};

struct Timeline {
  double window = 0.0;     ///< bucket width, seconds
  SimTime start = 0.0;     ///< left edge of bucket 0
  std::vector<UtilisationSeries> resources;
  /// Grid-wide busy fraction per window (node-weighted mean).
  std::vector<double> total;
  [[nodiscard]] std::size_t buckets() const { return total.size(); }
};

/// Most windows one timeline may hold: a 60 s window covers over 69 days,
/// and a window too narrow for its span fails instead of exhausting memory.
inline constexpr std::size_t kMaxTimelineBuckets = 100'000;

/// Buckets `records` (each execution charges [start, end) on its nodes)
/// into windows of `window` seconds starting at `start`.  `resources`
/// supplies labels and node counts in AgentId order 1..N; records must
/// carry 1-based resource ids.  Each record only touches the buckets its
/// execution overlaps, so the build is linear in the record count.  More
/// than kMaxTimelineBuckets windows fail with an AssertionError.
[[nodiscard]] Timeline build_timeline(
    const std::vector<sched::CompletionRecord>& records,
    const std::vector<std::pair<std::string, int>>& resources, double window,
    SimTime start, SimTime end);

/// window_start,resource,utilisation rows (long format).
[[nodiscard]] std::string timeline_csv(const Timeline& timeline);

/// Fixed-width text rendering: one row per resource, one column per
/// window, shaded by utilisation ( .:-=+*#%@ deciles).
[[nodiscard]] std::string render_timeline(const Timeline& timeline);

}  // namespace gridlb::metrics
