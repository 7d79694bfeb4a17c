// Metrics registry unit tests: instrument identity, histogram bucketing,
// and snapshot formats.
#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace gridlb::obs {
namespace {

TEST(Registry, CounterAccumulates) {
  MetricsRegistry registry;
  registry.counter("a").add();
  registry.counter("a").add(41);
  EXPECT_EQ(registry.counter("a").value(), 42u);
  // Same name, same instrument.
  EXPECT_EQ(&registry.counter("a"), &registry.counter("a"));
  EXPECT_NE(&registry.counter("a"), &registry.counter("b"));
}

TEST(Registry, GaugeHoldsLastValue) {
  MetricsRegistry registry;
  registry.gauge("g").set(1.5);
  registry.gauge("g").set(-2.5);
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), -2.5);
}

TEST(Registry, HistogramBucketsByUpperEdge) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", {1.0, 2.0});
  h.observe(0.5);   // <= 1
  h.observe(1.5);   // <= 2
  h.observe(5.0);   // +inf
  h.observe(2.0);   // boundary lands in the <= 2 bucket
  const Histogram::Snapshot snapshot = h.snapshot();
  EXPECT_EQ(snapshot.count, 4u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 9.0);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.5);
  EXPECT_DOUBLE_EQ(snapshot.max, 5.0);
  EXPECT_DOUBLE_EQ(snapshot.mean(), 2.25);
  ASSERT_EQ(snapshot.buckets.size(), 3u);
  EXPECT_EQ(snapshot.buckets[0], 1u);
  EXPECT_EQ(snapshot.buckets[1], 2u);
  EXPECT_EQ(snapshot.buckets[2], 1u);
}

TEST(Registry, HistogramBoundsOnlyApplyOnCreation) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", {1.0});
  EXPECT_EQ(&registry.histogram("h", {5.0, 10.0}), &h);
}

TEST(Registry, EmptyHistogramSnapshot) {
  MetricsRegistry registry;
  const auto snapshot = registry.histogram("h", {1.0}).snapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 0.0);
}

TEST(Registry, JsonSnapshotStructure) {
  MetricsRegistry registry;
  registry.counter("sim.events").add(7);
  registry.gauge("sched.shed_rate").set(0.75);
  registry.histogram("discovery.hops", {1.0, 2.0}).observe(1.0);
  const std::string json = registry.json_snapshot();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"sim.events\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sched.shed_rate\":0.75"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"discovery.hops\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  // Balanced braces is a cheap well-formedness proxy (python -m json.tool
  // validates the real files in CI).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Registry, JsonSnapshotListsInstrumentsInNameOrder) {
  MetricsRegistry registry;
  registry.counter("z.last").add(1);
  registry.counter("a.first").add(2);
  const std::string json = registry.json_snapshot();
  const auto a = json.find("\"a.first\"");
  const auto z = json.find("\"z.last\"");
  ASSERT_NE(a, std::string::npos) << json;
  ASSERT_NE(z, std::string::npos) << json;
  EXPECT_LT(a, z);
}

TEST(Registry, NonFiniteGaugeSerialisesAsNull) {
  MetricsRegistry registry;
  registry.gauge("bad").set(std::numeric_limits<double>::infinity());
  const std::string json = registry.json_snapshot();
  EXPECT_NE(json.find("\"bad\":null"), std::string::npos) << json;
}

TEST(Registry, GlobalAccessorDefaultsToNull) {
  EXPECT_EQ(registry(), nullptr);
}

}  // namespace
}  // namespace gridlb::obs
