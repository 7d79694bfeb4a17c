// Shared helper for the figure benches: runs the three Table 2
// experiments once and returns the results (Figs. 8, 9 and 10 are three
// projections of the same runs).
#pragma once

#include <cstdio>
#include <vector>

#include "common/log.hpp"
#include "gridlb.hpp"

namespace gridlb::bench {

inline std::vector<core::ExperimentResult> run_experiment_suite() {
  std::vector<core::ExperimentResult> results;
  for (const core::ExperimentConfig& config :
       {core::experiment1(), core::experiment2(), core::experiment3()}) {
    log::info("running ", config.name, "…");
    results.push_back(core::run_experiment(config));
  }
  return results;
}

/// Prints one Fig. 8/9/10-style series block: a column per experiment and
/// a row per agent plus the grid total, using `select` to project a metric
/// out of a MetricsRow.
template <class Select>
void print_series(const std::vector<core::ExperimentResult>& results,
                  const char* metric_label, Select select) {
  std::printf("%-7s", "agent");
  for (std::size_t e = 1; e <= results.size(); ++e) {
    std::printf("  exp%zu(%s)", e, metric_label);
  }
  std::printf("\n");
  const std::size_t rows = results.front().report.resources.size();
  for (std::size_t row = 0; row < rows; ++row) {
    std::printf("%-7s", results.front().report.resources[row].label.c_str());
    for (const auto& result : results) {
      std::printf("  %11.1f", select(result.report.resources[row]));
    }
    std::printf("\n");
  }
  std::printf("%-7s", "Total");
  for (const auto& result : results) {
    std::printf("  %11.1f", select(result.report.total));
  }
  std::printf("\n");
}

}  // namespace gridlb::bench
