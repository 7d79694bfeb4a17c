#include "obs/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "common/assert.hpp"

namespace gridlb::obs {

namespace {

void number(std::ostringstream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  os << buffer;
}

/// CSV cell: shortest round-trip-safe spelling, no quoting needed (column
/// names are metric identifiers, values are numbers).
void csv_number(std::ostringstream& os, double value) {
  if (!std::isfinite(value)) return;  // empty cell
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  os << buffer;
}

}  // namespace

double histogram_percentile(const std::vector<double>& bounds,
                            const std::vector<std::uint64_t>& buckets,
                            double q) {
  GRIDLB_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  GRIDLB_REQUIRE(buckets.size() == bounds.size() + 1,
                 "buckets must be bounds.size() + 1 wide");
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (next >= target) {
      if (i >= bounds.size()) {
        // +inf bucket: no finite upper edge to interpolate toward; report
        // the largest finite bound (Prometheus does the same).
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double width = bounds[i] - lower;
      const double inside = buckets[i] == 0
                                ? 0.0
                                : (target - cumulative) /
                                      static_cast<double>(buckets[i]);
      return lower + width * inside;
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void TimeSeries::append(SimTime t,
                        std::vector<std::pair<std::string, double>> values) {
  GRIDLB_ASSERT(std::is_sorted(
      values.begin(), values.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  rows_.push_back(Row{t, std::move(values)});
}

std::string TimeSeries::jsonl() const {
  std::ostringstream os;
  for (const Row& row : rows_) {
    os << "{\"t\":";
    number(os, row.t);
    for (const auto& [name, value] : row.values) {
      os << ",\"" << name << "\":";
      number(os, value);
    }
    os << "}\n";
  }
  return os.str();
}

std::string TimeSeries::csv() const {
  std::set<std::string> columns;
  for (const Row& row : rows_) {
    for (const auto& [name, value] : row.values) columns.insert(name);
  }
  std::ostringstream os;
  os << "t";
  for (const std::string& column : columns) os << ',' << column;
  os << '\n';
  for (const Row& row : rows_) {
    csv_number(os, row.t);
    // row.values and `columns` are both name-sorted: one linear sweep.
    auto it = row.values.begin();
    for (const std::string& column : columns) {
      os << ',';
      while (it != row.values.end() && it->first < column) ++it;
      if (it != row.values.end() && it->first == column) {
        csv_number(os, it->second);
      }
    }
    os << '\n';
  }
  return os.str();
}

Sampler::Sampler(const MetricsRegistry& registry) : registry_(&registry) {}

void Sampler::sample(SimTime at) {
  if (have_row_ && at <= last_at_) return;  // duplicate end-of-run tick
  have_row_ = true;
  last_at_ = at;
  ++samples_;

  const RegistrySample snap = registry_->sample();
  std::vector<std::pair<std::string, double>> values;
  values.reserve(snap.counters.size() + snap.gauges.size() +
                 5 * snap.histograms.size());

  for (const auto& [name, value] : snap.counters) {
    const auto it = prev_counters_.find(name);
    const std::uint64_t prev = it == prev_counters_.end() ? 0 : it->second;
    prev_counters_[name] = value;
    const std::uint64_t delta = value - prev;
    if (delta != 0) {
      values.emplace_back(name, static_cast<double>(delta));
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    values.emplace_back(name, value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    const auto it = prev_histograms_.find(name);
    const Histogram::Snapshot* prev =
        it == prev_histograms_.end() ? nullptr : &it->second;
    const std::uint64_t dcount = hist.count - (prev ? prev->count : 0);
    if (dcount > 0) {
      const double dsum = hist.sum - (prev ? prev->sum : 0.0);
      std::vector<std::uint64_t> dbuckets = hist.buckets;
      if (prev != nullptr) {
        for (std::size_t i = 0; i < dbuckets.size(); ++i) {
          dbuckets[i] -= prev->buckets[i];
        }
      }
      values.emplace_back(name + ".count", static_cast<double>(dcount));
      values.emplace_back(name + ".mean",
                          dsum / static_cast<double>(dcount));
      values.emplace_back(name + ".p50",
                          histogram_percentile(hist.bounds, dbuckets, 0.50));
      values.emplace_back(name + ".p90",
                          histogram_percentile(hist.bounds, dbuckets, 0.90));
      values.emplace_back(name + ".p99",
                          histogram_percentile(hist.bounds, dbuckets, 0.99));
    }
    prev_histograms_[name] = hist;
  }

  std::sort(values.begin(), values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  series_.append(at, std::move(values));
}

}  // namespace gridlb::obs
