#include "metrics/time_series.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/assert.hpp"
#include "sched/node_mask.hpp"

namespace gridlb::metrics {

Timeline build_timeline(
    const std::vector<sched::CompletionRecord>& records,
    const std::vector<std::pair<std::string, int>>& resources, double window,
    SimTime start, SimTime end) {
  GRIDLB_REQUIRE(window > 0.0, "window width must be positive");
  GRIDLB_REQUIRE(end >= start, "timeline ends before it starts");
  GRIDLB_REQUIRE(!resources.empty(), "timeline needs resources");

  Timeline out;
  out.window = window;
  out.start = start;
  const double span_buckets = std::max(1.0, std::ceil((end - start) / window));
  if (span_buckets > static_cast<double>(kMaxTimelineBuckets)) {
    char message[192];
    std::snprintf(message, sizeof message,
                  "timeline window %g s splits %g s into %.0f buckets, more "
                  "than the %zu allowed; widen the window",
                  window, end - start, span_buckets, kMaxTimelineBuckets);
    GRIDLB_REQUIRE(false, message);
  }
  const auto buckets = static_cast<std::size_t>(span_buckets);

  double total_nodes = 0.0;
  for (const auto& [label, node_count] : resources) {
    GRIDLB_REQUIRE(node_count >= 1, "resource needs nodes: " + label);
    UtilisationSeries series;
    series.label = label;
    series.node_count = node_count;
    series.utilisation.assign(buckets, 0.0);
    out.resources.push_back(std::move(series));
    total_nodes += node_count;
  }
  out.total.assign(buckets, 0.0);

  const double span_end = start + static_cast<double>(buckets) * window;
  for (const auto& record : records) {
    // AgentIds are 1-based; a zero id would wrap to a huge unsigned index.
    GRIDLB_REQUIRE(record.resource.value() >= 1,
                   "completion record has resource id 0 (ids are 1-based)");
    const auto resource_index =
        static_cast<std::size_t>(record.resource.value() - 1);
    GRIDLB_REQUIRE(resource_index < out.resources.size(),
                   "record references an unknown resource");
    GRIDLB_REQUIRE(record.end >= record.start,
                   "completion record runs backwards in time");
    UtilisationSeries& series = out.resources[resource_index];
    const double weight = static_cast<double>(sched::node_count(record.mask));
    // Spread the execution's node-seconds over the buckets it overlaps.
    // Only the bucket range [first, last) intersecting [start, end) is
    // visited — the build is linear in records, not records × buckets.
    // The range is widened by one bucket on each side so floating-point
    // rounding in the division can never skip a bucket the overlap test
    // would have charged; the `overlap <= 0` guard keeps the arithmetic
    // bit-identical to a full scan.
    const double clip_lo = std::max(record.start, start);
    const double clip_hi = std::min(record.end, span_end);
    if (clip_hi <= clip_lo) continue;
    auto first = static_cast<std::size_t>((clip_lo - start) / window);
    if (first > 0) --first;
    auto last = static_cast<std::size_t>(std::ceil((clip_hi - start) / window));
    if (last < buckets) ++last;
    last = std::min(last, buckets);
    for (std::size_t bucket = first; bucket < last; ++bucket) {
      const double lo = start + static_cast<double>(bucket) * window;
      const double hi = lo + window;
      const double overlap =
          std::max(0.0, std::min(hi, record.end) - std::max(lo, record.start));
      if (overlap <= 0.0) continue;
      series.utilisation[bucket] +=
          overlap * weight / (window * series.node_count);
      out.total[bucket] += overlap * weight / (window * total_nodes);
    }
  }
  return out;
}

std::string timeline_csv(const Timeline& timeline) {
  std::ostringstream os;
  os << "window_start,resource,utilisation\n";
  for (std::size_t bucket = 0; bucket < timeline.buckets(); ++bucket) {
    const double at =
        timeline.start + static_cast<double>(bucket) * timeline.window;
    for (const auto& series : timeline.resources) {
      os << at << ',' << series.label << ','
         << series.utilisation[bucket] << '\n';
    }
    os << at << ",Total," << timeline.total[bucket] << '\n';
  }
  return os.str();
}

std::string render_timeline(const Timeline& timeline) {
  // Decile shading, darkest = fully busy.
  static constexpr char kShades[] = " .:-=+*#%@";
  const auto shade = [](double utilisation) {
    const int decile = std::clamp(static_cast<int>(utilisation * 10.0), 0, 9);
    return kShades[decile];
  };
  std::ostringstream os;
  os << "utilisation per " << timeline.window << "s window ( ";
  os << kShades << " = 0..100% )\n";
  const auto emit = [&os, &shade](const std::string& label,
                                  const std::vector<double>& series) {
    os << label;
    for (std::size_t pad = label.size(); pad < 7; ++pad) os << ' ';
    os << '|';
    for (const double value : series) os << shade(value);
    os << "|\n";
  };
  for (const auto& series : timeline.resources) {
    emit(series.label, series.utilisation);
  }
  emit("Total", timeline.total);
  return os.str();
}

}  // namespace gridlb::metrics
