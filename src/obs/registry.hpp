// Runtime metrics registry: named counters, gauges and histograms.
//
// The registry is the queryable complement to the trace recorder: where
// the trace answers "what happened, in order", the registry answers "how
// much / how often / how spread".  Instrumentation sites observe samples
// live (discovery hops per request, advertisement staleness at use, GA
// generations-to-converge, queue depth) and the experiment harness folds
// in end-of-run aggregates (prediction-table reads, event counts, network
// traffic) so the snapshot is consistent with Table 3's statistics.
//
// Snapshots render as a JSON document that lists every instrument in name
// order, so diffs between runs are stable.
//
// A registry belongs to the thread whose Session installed it (see
// obs.hpp), so every instrument is a plain value with no lock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace gridlb::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  /// `bounds` are the upper edges of the finite buckets, strictly
  /// increasing; an implicit +inf bucket catches the rest.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;
    std::vector<double> bounds;        ///< finite upper edges
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (last = +inf)
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };
  [[nodiscard]] const Snapshot& snapshot() const { return data_; }

 private:
  Snapshot data_;
};

/// Structured point-in-time view of a whole registry, every instrument in
/// name order.  This is what the continuous sampler (sampler.hpp) diffs
/// between ticks to turn monotonic counters into per-interval deltas.
struct RegistrySample {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates.  Instrument references stay valid for the
  /// registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` are used only when the histogram does not exist yet; later
  /// calls with a different spec return the existing instrument.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// {"counters":{...},"gauges":{...},"histograms":{...}} — valid JSON
  /// (non-finite values are serialised as null).
  [[nodiscard]] std::string json_snapshot() const;
  /// Structured snapshot in name order (see RegistrySample).
  [[nodiscard]] RegistrySample sample() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

namespace detail {
/// This thread's installed registry (null = metrics off).
inline constinit thread_local MetricsRegistry* g_registry = nullptr;
}  // namespace detail

/// The calling thread's registry, or null when metrics are disabled.
/// Sites guard with one branch: `if (auto* reg = obs::registry()) ...`.
[[nodiscard]] inline MetricsRegistry* registry() { return detail::g_registry; }

}  // namespace gridlb::obs
