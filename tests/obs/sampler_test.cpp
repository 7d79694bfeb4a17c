// Continuous-sampler unit tests: percentile estimation, time-series
// rendering, counter-delta bookkeeping, and the experiment-level interval
// alignment the campaign report relies on.
#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace gridlb::obs {
namespace {

// --- histogram_percentile ------------------------------------------------

TEST(HistogramPercentile, EmptyHistogramReportsZero) {
  EXPECT_DOUBLE_EQ(histogram_percentile({1.0, 2.0}, {0, 0, 0}, 0.5), 0.0);
}

TEST(HistogramPercentile, InterpolatesInsideBucket) {
  // 10 observations uniformly attributed to the (1, 2] bucket: the median
  // sits mid-bucket.
  const std::vector<double> bounds{1.0, 2.0};
  const std::vector<std::uint64_t> buckets{0, 10, 0};
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, buckets, 0.5), 1.5);
  // First bucket interpolates from lower edge 0.
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, {10, 0, 0}, 0.5), 0.5);
}

TEST(HistogramPercentile, CrossesBucketsCumulatively) {
  // 4 in (0,1], 4 in (1,2]: p75 lands exactly at the top of bucket 2's
  // first half → 1 + (6-4)/4 = 1.5.
  const std::vector<double> bounds{1.0, 2.0};
  const std::vector<std::uint64_t> buckets{4, 4, 0};
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, buckets, 0.75), 1.5);
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, buckets, 0.25), 0.5);
}

TEST(HistogramPercentile, InfBucketClampsToLastFiniteBound) {
  const std::vector<double> bounds{1.0, 2.0};
  const std::vector<std::uint64_t> buckets{0, 0, 5};
  EXPECT_DOUBLE_EQ(histogram_percentile(bounds, buckets, 0.99), 2.0);
}

// --- TimeSeries ----------------------------------------------------------

TEST(TimeSeries, JsonlEmitsOneObjectPerRow) {
  TimeSeries series;
  series.append(1.0, {{"a", 2.0}, {"b", 0.5}});
  series.append(2.5, {{"b", 1.0}});
  EXPECT_EQ(series.jsonl(),
            "{\"t\":1,\"a\":2,\"b\":0.5}\n{\"t\":2.5,\"b\":1}\n");
}

TEST(TimeSeries, CsvUnionsColumnsWithEmptyCells) {
  TimeSeries series;
  series.append(1.0, {{"a", 2.0}});
  series.append(2.0, {{"b", 3.0}});
  series.append(3.0, {{"a", 4.0}, {"b", 5.0}});
  EXPECT_EQ(series.csv(), "t,a,b\n1,2,\n2,,3\n3,4,5\n");
}

TEST(TimeSeries, EmptySeriesRendersHeaderOnly) {
  TimeSeries series;
  EXPECT_EQ(series.jsonl(), "");
  EXPECT_EQ(series.csv(), "t\n");
}

// --- Sampler delta bookkeeping -------------------------------------------

TEST(Sampler, CountersAreReportedAsIntervalDeltas) {
  MetricsRegistry registry;
  Sampler sampler(registry);
  registry.counter("c").add(10);
  sampler.sample(1.0);
  registry.counter("c").add(5);
  sampler.sample(2.0);
  sampler.sample(3.0);  // no movement: column omitted, row still appended

  const auto& rows = sampler.series().rows();
  ASSERT_EQ(rows.size(), 3u);
  ASSERT_EQ(rows[0].values.size(), 1u);
  EXPECT_EQ(rows[0].values[0].first, "c");
  EXPECT_DOUBLE_EQ(rows[0].values[0].second, 10.0);
  ASSERT_EQ(rows[1].values.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[1].values[0].second, 5.0);
  EXPECT_TRUE(rows[2].values.empty());
  EXPECT_EQ(sampler.samples_taken(), 3u);
}

TEST(Sampler, GaugesAreAlwaysCurrent) {
  MetricsRegistry registry;
  Sampler sampler(registry);
  registry.gauge("g").set(1.5);
  sampler.sample(1.0);
  sampler.sample(2.0);  // unchanged gauge still present
  registry.gauge("g").set(-3.0);
  sampler.sample(3.0);

  const auto& rows = sampler.series().rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].values[0].second, 1.5);
  EXPECT_DOUBLE_EQ(rows[1].values[0].second, 1.5);
  EXPECT_DOUBLE_EQ(rows[2].values[0].second, -3.0);
}

TEST(Sampler, HistogramsExportWindowedPercentiles) {
  MetricsRegistry registry;
  Sampler sampler(registry);
  Histogram& h = registry.histogram("lat", {1.0, 2.0});
  h.observe(0.5);
  h.observe(0.5);
  sampler.sample(1.0);
  // Second window: all 10 new observations in (1, 2].  The percentiles
  // must describe only this window, not the lifetime distribution.
  for (int i = 0; i < 10; ++i) h.observe(1.5);
  sampler.sample(2.0);

  const auto& rows = sampler.series().rows();
  ASSERT_EQ(rows.size(), 2u);
  const auto get = [](const TimeSeries::Row& row, const std::string& name) {
    for (const auto& [col, value] : row.values) {
      if (col == name) return value;
    }
    ADD_FAILURE() << "missing column " << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(get(rows[0], "lat.count"), 2.0);
  EXPECT_DOUBLE_EQ(get(rows[0], "lat.mean"), 0.5);
  EXPECT_DOUBLE_EQ(get(rows[1], "lat.count"), 10.0);
  EXPECT_DOUBLE_EQ(get(rows[1], "lat.mean"), 1.5);
  EXPECT_DOUBLE_EQ(get(rows[1], "lat.p50"), 1.5);
  EXPECT_GT(get(rows[1], "lat.p99"), 1.5);
}

TEST(Sampler, DuplicateTimestampIsIgnored) {
  MetricsRegistry registry;
  Sampler sampler(registry);
  registry.counter("c").add(1);
  sampler.sample(5.0);
  registry.counter("c").add(1);
  sampler.sample(5.0);  // final end-of-run sample coinciding with a tick
  EXPECT_EQ(sampler.series().rows().size(), 1u);
  EXPECT_EQ(sampler.samples_taken(), 1u);
}

// --- Experiment-level interval alignment ---------------------------------

TEST(SamplerExperiment, TicksAlignToTheConfiguredInterval) {
  const std::string path = "sampler_test_series.tmp";
  core::ExperimentConfig config = core::experiment1();
  config.workload.count = 24;
  config.obs.metrics_interval = 50.0;
  config.obs.series_jsonl_out = path;
  const core::ExperimentResult result = core::run_experiment(config);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<double> ts;
  std::string line;
  while (std::getline(in, line)) {
    // Every row starts {"t":<value>,...
    ASSERT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    ts.push_back(std::stod(line.substr(5)));
  }
  in.close();
  std::remove(path.c_str());

  // Periodic ticks at k·interval while the run lasted, plus the final
  // end-of-run sample at finished_at.
  ASSERT_GE(ts.size(), 2u);
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(ts[i], 50.0 * static_cast<double>(i + 1));
  }
  EXPECT_DOUBLE_EQ(ts.back(), result.finished_at);
  EXPECT_EQ(ts.size(),
            static_cast<std::size_t>(result.finished_at / 50.0) + 1);
}

}  // namespace
}  // namespace gridlb::obs
