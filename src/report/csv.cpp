#include "report/csv.hpp"

#include <sstream>

namespace gridlb::report {

std::string csv_field(const std::string& raw) {
  const bool needs_quoting =
      raw.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return raw;
  std::string out = "\"";
  for (const char ch : raw) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}

std::string report_csv(const metrics::Report& report) {
  std::ostringstream os;
  os << "resource,tasks,deadlines_met,advance_time_s,utilisation,balance\n";
  const auto emit = [&os](const metrics::MetricsRow& row) {
    os << csv_field(row.label) << ',' << row.tasks << ','
       << row.deadlines_met << ',' << row.advance_time << ','
       << row.utilisation << ',' << row.balance << '\n';
  };
  for (const auto& row : report.resources) emit(row);
  emit(report.total);
  return os.str();
}

std::string experiments_csv(
    std::span<const core::ExperimentResult> results) {
  std::ostringstream os;
  os << "experiment,resource,eps_s,utilisation,balance\n";
  for (const auto& result : results) {
    const auto emit = [&os, &result](const metrics::MetricsRow& row) {
      os << csv_field(result.name) << ',' << csv_field(row.label) << ','
         << row.advance_time << ',' << row.utilisation << ',' << row.balance
         << '\n';
    };
    for (const auto& row : result.report.resources) emit(row);
    emit(result.report.total);
  }
  return os.str();
}

}  // namespace gridlb::report
