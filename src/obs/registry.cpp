#include "obs/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/assert.hpp"
#include "common/number.hpp"

namespace gridlb::obs {

namespace {

void json_string(std::ostringstream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          os << buffer;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) {
  GRIDLB_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()) &&
                     std::adjacent_find(bounds.begin(), bounds.end()) ==
                         bounds.end(),
                 "histogram bounds must be strictly increasing");
  data_.bounds = std::move(bounds);
  data_.buckets.assign(data_.bounds.size() + 1, 0);
}

void Histogram::observe(double value) {
  if (data_.count == 0) {
    data_.min = data_.max = value;
  } else {
    data_.min = std::min(data_.min, value);
    data_.max = std::max(data_.max, value);
  }
  ++data_.count;
  data_.sum += value;
  const auto it =
      std::lower_bound(data_.bounds.begin(), data_.bounds.end(), value);
  ++data_.buckets[static_cast<std::size_t>(it - data_.bounds.begin())];
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<Histogram>(std::move(bounds)))
              .first->second;
}

std::string MetricsRegistry::json_snapshot() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':' << counter->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) os << ',';
    first = false;
    json_string(os, name);
    os << ':';
    os << exact_number(gauge->value(), "null");
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) os << ',';
    first = false;
    const Histogram::Snapshot& snap = histogram->snapshot();
    json_string(os, name);
    os << ":{\"count\":" << snap.count << ",\"sum\":";
    os << exact_number(snap.sum, "null");
    os << ",\"min\":";
    os << exact_number(snap.min, "null");
    os << ",\"max\":";
    os << exact_number(snap.max, "null");
    os << ",\"mean\":";
    os << exact_number(snap.mean(), "null");
    os << ",\"buckets\":[";
    for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
      if (i != 0) os << ',';
      os << "{\"le\":";
      if (i < snap.bounds.size()) {
        os << exact_number(snap.bounds[i], "null");
      } else {
        os << "\"+inf\"";
      }
      os << ",\"count\":" << snap.buckets[i] << '}';
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

RegistrySample MetricsRegistry::sample() const {
  RegistrySample out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.emplace_back(name, histogram->snapshot());
  }
  return out;
}

}  // namespace gridlb::obs
