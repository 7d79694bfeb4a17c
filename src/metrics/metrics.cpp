#include "metrics/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/assert.hpp"
#include "sched/node_mask.hpp"

namespace gridlb::metrics {

void MetricsCollector::add_resource(AgentId id, std::string label,
                                    int node_count) {
  GRIDLB_REQUIRE(id.valid(), "resource id must be valid");
  GRIDLB_REQUIRE(node_count >= 1, "resource needs at least one node");
  GRIDLB_REQUIRE(find(id) == nullptr, "resource registered twice");
  Resource resource;
  resource.id = id;
  resource.label = std::move(label);
  resource.node_count = node_count;
  resource.node_busy.assign(static_cast<std::size_t>(node_count), 0.0);
  resources_.push_back(std::move(resource));
}

void MetricsCollector::on_submission(SimTime time) {
  if (!first_submission_ || time < *first_submission_) {
    first_submission_ = time;
  }
}

const MetricsCollector::Resource* MetricsCollector::find(AgentId id) const {
  for (const auto& resource : resources_) {
    if (resource.id == id) return &resource;
  }
  return nullptr;
}

MetricsCollector::Resource* MetricsCollector::find(AgentId id) {
  return const_cast<Resource*>(
      static_cast<const MetricsCollector*>(this)->find(id));
}

void MetricsCollector::record(const sched::CompletionRecord& record) {
  Resource* resource = find(record.resource);
  GRIDLB_REQUIRE(resource != nullptr,
                 "completion for unregistered resource " +
                     record.resource.str());
  GRIDLB_REQUIRE(record.end >= record.start, "task ends before it starts");
  const double busy = record.end - record.start;
  sched::for_each_node(record.mask, [&](int node) {
    GRIDLB_REQUIRE(node < resource->node_count,
                   "completion references a node beyond the resource");
    resource->node_busy[static_cast<std::size_t>(node)] += busy;
  });
  ++resource->tasks;
  if (record.end <= record.deadline) ++resource->deadlines_met;
  resource->advance += record.deadline - record.end;
  records_.push_back(record);
  last_completion_ = std::max(last_completion_, record.end);
}

namespace {

/// Mean and "mean square deviation" (eq. 14: d = sqrt(Σ(υi−ῡ)²/N)).
struct Spread {
  double mean = 0.0;
  double deviation = 0.0;
};

Spread spread_of(const std::vector<double>& values) {
  Spread out;
  if (values.empty()) return out;
  for (const double v : values) out.mean += v;
  out.mean /= static_cast<double>(values.size());
  double sum_sq = 0.0;
  for (const double v : values) {
    sum_sq += (v - out.mean) * (v - out.mean);
  }
  out.deviation = std::sqrt(sum_sq / static_cast<double>(values.size()));
  return out;
}

/// β = 1 − d/ῡ (eq. 15); an idle window (ῡ = 0) reports β = 0.
double balance_of(const Spread& spread) {
  if (spread.mean <= 0.0) return 0.0;
  return 1.0 - spread.deviation / spread.mean;
}

}  // namespace

Report MetricsCollector::report(std::optional<SimTime> window_end) const {
  Report out;
  out.window_start = first_submission_.value_or(0.0);
  out.window_end = window_end.value_or(last_completion_);
  const double window = out.window() > 0.0 ? out.window() : 0.0;

  std::vector<double> all_rates;
  double total_advance = 0.0;
  int total_tasks = 0;
  int total_met = 0;

  for (const auto& resource : resources_) {
    MetricsRow row;
    row.label = resource.label;
    row.tasks = resource.tasks;
    row.deadlines_met = resource.deadlines_met;

    std::vector<double> rates;
    rates.reserve(resource.node_busy.size());
    for (const double busy : resource.node_busy) {
      const double rate = window > 0.0 ? busy / window : 0.0;
      rates.push_back(rate);
      all_rates.push_back(rate);
    }
    const Spread spread = spread_of(rates);
    row.utilisation = spread.mean;
    row.balance = balance_of(spread);

    row.advance_time = row.tasks > 0 ? resource.advance /
                                           static_cast<double>(row.tasks)
                                     : 0.0;

    total_advance += resource.advance;
    total_tasks += row.tasks;
    total_met += row.deadlines_met;
    out.resources.push_back(std::move(row));
  }

  const Spread total_spread = spread_of(all_rates);
  out.total.label = "Total";
  out.total.tasks = total_tasks;
  out.total.deadlines_met = total_met;
  out.total.advance_time =
      total_tasks > 0 ? total_advance / static_cast<double>(total_tasks) : 0.0;
  out.total.utilisation = total_spread.mean;
  out.total.balance = balance_of(total_spread);
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  GRIDLB_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

std::string format_report(const Report& report) {
  std::ostringstream os;
  os << std::fixed;
  os << std::setw(8) << "resource" << std::setw(8) << "tasks" << std::setw(10)
     << "met" << std::setw(12) << "eps(s)" << std::setw(10) << "util(%)"
     << std::setw(10) << "beta(%)" << '\n';
  const auto emit = [&os](const MetricsRow& row) {
    os << std::setw(8) << row.label << std::setw(8) << row.tasks
       << std::setw(10) << row.deadlines_met << std::setw(12)
       << std::setprecision(1) << row.advance_time << std::setw(10)
       << std::setprecision(1) << row.utilisation * 100.0 << std::setw(10)
       << std::setprecision(1) << row.balance * 100.0 << '\n';
  };
  for (const auto& row : report.resources) emit(row);
  emit(report.total);
  if (report.total.tasks == 0) {
    // An all-zero table looks like a measured result; say explicitly that
    // nothing completed so the window statistics are vacuous.
    os << "(no completions: utilisation and balance are undefined over an "
          "empty window)\n";
  }
  return os.str();
}

std::string format_report(const Report& report,
                          const std::vector<std::string>& notes) {
  std::string out = format_report(report);
  for (const std::string& note : notes) {
    out += '(';
    out += note;
    out += ")\n";
  }
  return out;
}

}  // namespace gridlb::metrics
