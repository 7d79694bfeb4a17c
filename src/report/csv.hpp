// CSV export of simulation results — metric reports and
// multi-experiment comparisons — for analysis outside the simulator
// (spreadsheets, pandas, gnuplot).  Fields containing separators or
// quotes are quoted per RFC 4180.
#pragma once

#include <span>
#include <string>

#include "core/experiment.hpp"
#include "metrics/metrics.hpp"

namespace gridlb::report {

/// Escapes one CSV field (quotes only when needed).
[[nodiscard]] std::string csv_field(const std::string& raw);

/// resource,tasks,deadlines_met,advance_time_s,utilisation,balance
/// (per-resource rows plus the Total row).
[[nodiscard]] std::string report_csv(const metrics::Report& report);

/// experiment,resource,eps_s,utilisation,balance — the long-format data
/// behind Table 3 / Figs. 8–10, one row per (experiment, resource).
[[nodiscard]] std::string experiments_csv(
    std::span<const core::ExperimentResult> results);

}  // namespace gridlb::report
