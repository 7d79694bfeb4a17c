// Continuous registry sampling: sim-time snapshots of the metrics
// registry folded into an append-only time series.
//
// A single end-of-run registry snapshot collapses a multi-hour campaign
// into one aggregate row; the sampler restores the time axis.  Every
// `--metrics-interval` simulated seconds (the experiment harness drives
// the ticks through the engine, so cadence is virtual-time exact) the
// sampler reads the whole registry and appends one row:
//
//   * counters  — as per-interval deltas, so each column is a rate once
//     divided by the interval (flow.completed = completions this window);
//   * gauges    — as their current value;
//   * histograms — as `<name>.count` (observations this window),
//     `<name>.mean` (window mean) and `<name>.p50/.p90/.p99` (estimated
//     from the window's bucket deltas, Prometheus-style linear
//     interpolation within the bucket).
//
// The series exports as JSONL (one object per row, only the columns that
// moved) and CSV (the sorted union of all columns; empty cells where a
// column had no value yet).  Both are inputs to tools/campaign_report.py.
//
// Sampling is read-only on atomics plus short histogram mutexes, so it is
// observation-neutral by construction; the experiment harness additionally
// subtracts the tick events themselves from `sim_events` so the published
// ExperimentResult stays bit-for-bit identical with the sampler on or off
// (pinned by tests/obs/determinism_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/registry.hpp"

namespace gridlb::obs {

/// Percentile estimate from cumulative histogram buckets, Prometheus
/// style: find the bucket where the cumulative count crosses q·total and
/// interpolate linearly inside it (the first bucket's lower edge is 0; a
/// quantile landing in the +inf bucket reports the last finite bound).
/// `buckets` has bounds.size() + 1 entries; returns 0 when all are empty.
[[nodiscard]] double histogram_percentile(
    const std::vector<double>& bounds,
    const std::vector<std::uint64_t>& buckets, double q);

/// Append-only series of named-column rows with JSONL and CSV renderers.
class TimeSeries {
 public:
  struct Row {
    SimTime t = 0.0;
    std::vector<std::pair<std::string, double>> values;  ///< name order
  };

  /// `values` must be sorted by name (the sampler emits them that way).
  void append(SimTime t, std::vector<std::pair<std::string, double>> values);

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  [[nodiscard]] bool empty() const { return rows_.empty(); }

  /// One JSON object per row: {"t":<sim-time>,"<col>":<value>,...}.
  [[nodiscard]] std::string jsonl() const;
  /// Header = "t" + sorted union of every column ever seen; cells are
  /// empty where a row lacks the column.
  [[nodiscard]] std::string csv() const;

 private:
  std::vector<Row> rows_;
};

/// Diffs registry snapshots between ticks into TimeSeries rows (see the
/// file comment for the column scheme).
class Sampler {
 public:
  explicit Sampler(const MetricsRegistry& registry);

  /// Takes one sample at sim time `at`.  Rows must be appended in
  /// non-decreasing time order; a duplicate timestamp is ignored (the
  /// final end-of-run sample can coincide with the last periodic tick).
  void sample(SimTime at);

  [[nodiscard]] const TimeSeries& series() const { return series_; }
  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }

 private:
  const MetricsRegistry* registry_;
  std::map<std::string, std::uint64_t> prev_counters_;
  std::map<std::string, Histogram::Snapshot> prev_histograms_;
  TimeSeries series_;
  std::uint64_t samples_ = 0;
  bool have_row_ = false;
  SimTime last_at_ = 0.0;
};

}  // namespace gridlb::obs
