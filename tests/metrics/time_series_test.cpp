#include "metrics/time_series.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "sched/node_mask.hpp"

namespace gridlb::metrics {
namespace {

sched::CompletionRecord record(std::uint64_t resource, sched::NodeMask mask,
                               SimTime start, SimTime end) {
  sched::CompletionRecord r;
  r.task = TaskId(1);
  r.resource = AgentId(resource);
  r.mask = mask;
  r.start = start;
  r.end = end;
  r.deadline = 1e6;
  return r;
}

const std::vector<std::pair<std::string, int>> kTwoResources = {
    {"S1", 2}, {"S2", 4}};

TEST(Timeline, FullWindowFullNodes) {
  // Both S1 nodes busy for the whole first window.
  const auto timeline = build_timeline({record(1, 0b11, 0.0, 10.0)},
                                       kTwoResources, 10.0, 0.0, 20.0);
  ASSERT_EQ(timeline.buckets(), 2u);
  EXPECT_DOUBLE_EQ(timeline.resources[0].utilisation[0], 1.0);
  EXPECT_DOUBLE_EQ(timeline.resources[0].utilisation[1], 0.0);
  EXPECT_DOUBLE_EQ(timeline.resources[1].utilisation[0], 0.0);
  // Grid total: 2 of 6 nodes busy in window 0.
  EXPECT_NEAR(timeline.total[0], 2.0 / 6.0, 1e-12);
}

TEST(Timeline, PartialOverlapIsProRated) {
  // One S1 node busy 5..15 over two 10 s windows: half of one node each.
  const auto timeline = build_timeline({record(1, 0b01, 5.0, 15.0)},
                                       kTwoResources, 10.0, 0.0, 20.0);
  EXPECT_DOUBLE_EQ(timeline.resources[0].utilisation[0], 0.25);
  EXPECT_DOUBLE_EQ(timeline.resources[0].utilisation[1], 0.25);
}

TEST(Timeline, ExecutionsOutsideTheRangeAreClipped) {
  const auto timeline = build_timeline({record(1, 0b01, -100.0, 5.0)},
                                       kTwoResources, 10.0, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(timeline.resources[0].utilisation[0], 0.25);
}

TEST(Timeline, MultipleRecordsAccumulate) {
  const auto timeline = build_timeline(
      {record(1, 0b01, 0.0, 10.0), record(1, 0b10, 0.0, 10.0),
       record(2, 0b1111, 0.0, 5.0)},
      kTwoResources, 10.0, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(timeline.resources[0].utilisation[0], 1.0);
  EXPECT_DOUBLE_EQ(timeline.resources[1].utilisation[0], 0.5);
  EXPECT_NEAR(timeline.total[0], (2.0 * 10 + 4 * 5) / (10.0 * 6), 1e-12);
}

TEST(Timeline, ValidatesArguments) {
  EXPECT_THROW(build_timeline({}, kTwoResources, 0.0, 0.0, 10.0),
               AssertionError);
  EXPECT_THROW(build_timeline({}, kTwoResources, 10.0, 10.0, 0.0),
               AssertionError);
  EXPECT_THROW(build_timeline({}, {}, 10.0, 0.0, 10.0), AssertionError);
  EXPECT_THROW(build_timeline({record(5, 0b1, 0.0, 1.0)}, kTwoResources,
                              10.0, 0.0, 10.0),
               AssertionError);
}

TEST(Timeline, RejectsMoreBucketsThanTheCap) {
  // One bucket past the cap fails; the cap itself still builds.
  const auto cap = static_cast<double>(kMaxTimelineBuckets);
  EXPECT_THROW(build_timeline({}, {{"S1", 1}}, 1.0, 0.0, cap + 1.0),
               AssertionError);
  EXPECT_EQ(build_timeline({}, {{"S1", 1}}, 1.0, 0.0, cap).buckets(),
            kMaxTimelineBuckets);
}

TEST(Timeline, EmptyRangeStillHasOneBucket) {
  const auto timeline = build_timeline({}, kTwoResources, 10.0, 0.0, 0.0);
  EXPECT_EQ(timeline.buckets(), 1u);
}

TEST(Timeline, EmptySeriesIsEntirelyIdle) {
  const auto timeline = build_timeline({}, kTwoResources, 10.0, 0.0, 30.0);
  ASSERT_EQ(timeline.buckets(), 3u);
  for (const auto& series : timeline.resources) {
    for (const double u : series.utilisation) EXPECT_DOUBLE_EQ(u, 0.0);
  }
  for (const double u : timeline.total) EXPECT_DOUBLE_EQ(u, 0.0);
  // Renders and serialises without tripping on the absence of data.
  EXPECT_FALSE(render_timeline(timeline).empty());
  EXPECT_NE(timeline_csv(timeline).find("0,Total,0"), std::string::npos);
}

TEST(Timeline, SingleSampleFillsExactlyItsOverlap) {
  // One instantaneous-ish record entirely inside the middle bucket.
  const auto timeline = build_timeline({record(2, 0b1, 12.0, 14.0)},
                                       kTwoResources, 10.0, 0.0, 30.0);
  ASSERT_EQ(timeline.buckets(), 3u);
  EXPECT_DOUBLE_EQ(timeline.resources[1].utilisation[0], 0.0);
  // 2 node-seconds over a 10 s × 4-node window.
  EXPECT_DOUBLE_EQ(timeline.resources[1].utilisation[1], 2.0 / 40.0);
  EXPECT_DOUBLE_EQ(timeline.resources[1].utilisation[2], 0.0);
}

TEST(Timeline, ZeroLengthRecordContributesNothing) {
  const auto timeline = build_timeline({record(1, 0b1, 5.0, 5.0)},
                                       kTwoResources, 10.0, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(timeline.resources[0].utilisation[0], 0.0);
}

TEST(Timeline, ZeroResourceIdIsRejectedExplicitly) {
  // AgentIds are 1-based; id 0 used to wrap to a huge unsigned index and
  // was only caught incidentally by the unknown-resource size check.  The
  // rejection must name the real problem.
  try {
    (void)build_timeline({record(0, 0b1, 0.0, 1.0)}, kTwoResources, 10.0,
                         0.0, 10.0);
    FAIL() << "zero resource id must be rejected";
  } catch (const AssertionError& error) {
    EXPECT_NE(std::string(error.what()).find("resource id 0"),
              std::string::npos)
        << error.what();
  }
}

/// The pre-optimisation timeline build: every record scans every bucket.
/// Kept verbatim as the reference the ranged accumulation must match
/// bit-for-bit (same adds, same order, same floating-point results).
Timeline full_scan_timeline(
    const std::vector<sched::CompletionRecord>& records,
    const std::vector<std::pair<std::string, int>>& resources, double window,
    SimTime start, SimTime end) {
  Timeline out;
  out.window = window;
  out.start = start;
  const auto buckets = static_cast<std::size_t>(
      std::max(1.0, std::ceil((end - start) / window)));
  double total_nodes = 0.0;
  for (const auto& [label, node_count] : resources) {
    UtilisationSeries series;
    series.label = label;
    series.node_count = node_count;
    series.utilisation.assign(buckets, 0.0);
    out.resources.push_back(std::move(series));
    total_nodes += node_count;
  }
  out.total.assign(buckets, 0.0);
  for (const auto& record : records) {
    const auto resource_index =
        static_cast<std::size_t>(record.resource.value() - 1);
    UtilisationSeries& series = out.resources[resource_index];
    const double weight = static_cast<double>(sched::node_count(record.mask));
    for (std::size_t bucket = 0; bucket < buckets; ++bucket) {
      const double lo = start + static_cast<double>(bucket) * window;
      const double hi = lo + window;
      const double overlap =
          std::max(0.0, std::min(hi, record.end) - std::max(lo, record.start));
      if (overlap <= 0.0) continue;
      series.utilisation[bucket] +=
          overlap * weight / (window * series.node_count);
      out.total[bucket] += overlap * weight / (window * total_nodes);
    }
  }
  return out;
}

TEST(Timeline, RangedAccumulationMatchesFullScanOnCaseStudyWorkload) {
  // The real 600-task case-study run: the ranged build must reproduce the
  // quadratic full scan bit-for-bit (identical CSV text, not just close).
  core::ExperimentConfig config = core::experiment3();
  config.workload.count = 600;
  const core::ExperimentResult result = core::run_experiment(config);
  ASSERT_EQ(result.completions.size(), 600u);

  std::vector<std::pair<std::string, int>> resources;
  for (const auto& spec : config.system.resources) {
    resources.emplace_back(spec.name, spec.node_count);
  }
  SimTime end = 0.0;
  for (const auto& record : result.completions) {
    end = std::max(end, record.end);
  }
  for (const double window : {7.0, 60.0, 1e6}) {
    const Timeline ranged =
        build_timeline(result.completions, resources, window, 0.0, end);
    const Timeline reference =
        full_scan_timeline(result.completions, resources, window, 0.0, end);
    EXPECT_EQ(timeline_csv(ranged), timeline_csv(reference))
        << "window " << window;
    // Stronger than the CSV text: the raw doubles are bit-for-bit equal.
    ASSERT_EQ(ranged.buckets(), reference.buckets());
    EXPECT_EQ(ranged.total, reference.total);
    for (std::size_t r = 0; r < ranged.resources.size(); ++r) {
      EXPECT_EQ(ranged.resources[r].utilisation,
                reference.resources[r].utilisation)
          << resources[r].first;
    }
  }
}

TEST(Timeline, RecordRunningBackwardsIsRejected) {
  // end < start is always a bookkeeping bug upstream; reject loudly
  // instead of silently subtracting negative node-seconds.
  EXPECT_THROW(build_timeline({record(1, 0b1, 10.0, 5.0)}, kTwoResources,
                              10.0, 0.0, 20.0),
               AssertionError);
}

TEST(Timeline, CsvLongFormat) {
  const auto timeline = build_timeline({record(1, 0b01, 0.0, 10.0)},
                                       kTwoResources, 10.0, 0.0, 10.0);
  const std::string csv = timeline_csv(timeline);
  EXPECT_NE(csv.find("window_start,resource,utilisation"),
            std::string::npos);
  // One of S1's two nodes busy for the whole window = 0.5.
  EXPECT_NE(csv.find("0,S1,0.5"), std::string::npos) << csv;
  EXPECT_NE(csv.find("0,Total,"), std::string::npos);
}

TEST(Timeline, RenderShadesByDecile) {
  const auto timeline = build_timeline(
      {record(1, 0b11, 0.0, 10.0)}, kTwoResources, 10.0, 0.0, 20.0);
  const std::string text = render_timeline(timeline);
  // S1: full busy then idle -> '@' then ' '.
  EXPECT_NE(text.find("S1     |@ |"), std::string::npos) << text;
  EXPECT_NE(text.find("S2     |  |"), std::string::npos);
}

}  // namespace
}  // namespace gridlb::metrics
