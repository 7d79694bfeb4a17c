// The paper's three grid load-balancing metrics (§3.3).
//
// Over an observation window of length t during which M tasks ran on N
// processing nodes:
//   ε — average advance time of application execution completion
//       (eq. 11): mean of (δ_j − η_j); negative when most deadlines fail.
//   υ — resource utilisation rate: per node, busy seconds / t (eq. 12);
//       averaged per resource and over the whole grid (eq. 13).
//   β — load-balancing level: β = (1 − d/ῡ)·100% where d is the mean
//       square deviation of the per-node rates (eqs. 14–15); most
//       effective balancing is d = 0 and β = 100%.
//
// The window is [first submission, last completion] of the whole run — the
// only reading consistent with Table 3, where lightly-loaded resources
// show single-digit utilisation while the experiment is dominated by the
// overloaded ones.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "sched/local_scheduler.hpp"

namespace gridlb::metrics {

/// ε / υ / β for one resource (one Table 3 row segment) or the grid total.
struct MetricsRow {
  std::string label;
  int tasks = 0;           ///< tasks completed here
  int deadlines_met = 0;
  double advance_time = 0.0;  ///< ε, seconds (negative = late on average)
  double utilisation = 0.0;   ///< υ, in [0, 1]
  double balance = 0.0;       ///< β, in [0, 1] (can go negative if d > ῡ)
};

struct Report {
  std::vector<MetricsRow> resources;  ///< one row per resource, added order
  MetricsRow total;                   ///< grid-wide row (label "Total")
  SimTime window_start = 0.0;
  SimTime window_end = 0.0;
  [[nodiscard]] double window() const { return window_end - window_start; }
};

class MetricsCollector {
 public:
  /// Registers a resource before any records reference it.
  void add_resource(AgentId id, std::string label, int node_count);

  /// Notes a request submission (the window opens at the first one).
  void on_submission(SimTime time);

  /// Ingests one completed task.
  void record(const sched::CompletionRecord& record);

  [[nodiscard]] std::size_t completed_tasks() const { return records_.size(); }
  [[nodiscard]] const std::vector<sched::CompletionRecord>& records()
      const& {
    return records_;
  }
  /// Hands the records over; the collector is spent.
  [[nodiscard]] std::vector<sched::CompletionRecord> records() && {
    return std::move(records_);
  }

  /// Computes the full ε/υ/β report.  `window_end` defaults to the last
  /// completion; pass an explicit end to evaluate a truncated window.
  [[nodiscard]] Report report(
      std::optional<SimTime> window_end = std::nullopt) const;

 private:
  struct Resource {
    AgentId id;
    std::string label;
    int node_count = 0;
    std::vector<double> node_busy;  ///< busy seconds per node
    // Running sums over this resource's completions, in record order.
    int tasks = 0;
    int deadlines_met = 0;
    double advance = 0.0;  ///< Σ (deadline − end)
  };

  [[nodiscard]] const Resource* find(AgentId id) const;
  Resource* find(AgentId id);

  std::vector<Resource> resources_;
  std::vector<sched::CompletionRecord> records_;
  std::optional<SimTime> first_submission_;
  SimTime last_completion_ = 0.0;
};

/// Nearest-rank percentile: the smallest value with at least p% of the
/// sample at or below it (p in [0, 100]).  Deterministic — no
/// interpolation — and 0.0 for an empty sample, so zero-completion
/// windows report 0 instead of NaN.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Renders a report as an aligned text table (used by benches/examples).
[[nodiscard]] std::string format_report(const Report& report);

/// Same table with caveat lines appended — one per note, `(note)` style.
/// Callers use this to surface measurement caveats (e.g. trace-ring
/// drops) next to the numbers they qualify instead of in a log stream.
[[nodiscard]] std::string format_report(const Report& report,
                                        const std::vector<std::string>& notes);

}  // namespace gridlb::metrics
