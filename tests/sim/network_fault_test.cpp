// The deterministic fault plan (DESIGN.md §10): drops, jitter, partitions
// and endpoint outages, all reproducible from the plan's seed — plus the
// neutrality contract that an inactive plan changes nothing at all.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"

namespace gridlb::sim {
namespace {

/// Sends `count` messages a→b at distinct times; returns delivery times.
std::vector<SimTime> run_stream(const FaultPlan& plan, int count) {
  Engine engine;
  Network network(engine, 0.05, plan);
  std::vector<SimTime> delivered;
  const EndpointId a = network.register_endpoint("a.gridlb.sim", 1, [](auto&) {});
  const EndpointId b = network.register_endpoint(
      "b.gridlb.sim", 2,
      [&delivered](const Message& m) { delivered.push_back(m.delivered_at); });
  for (int i = 0; i < count; ++i) {
    engine.schedule_at(static_cast<double>(i), [&network, a, b]() {
      network.send(a, b, "payload");
    });
  }
  engine.run();
  return delivered;
}

TEST(NetworkFaults, InactivePlanIsBitForBitNeutral) {
  // A default-constructed plan must leave the delivery schedule identical
  // to a network built without one — same times, same stats, no drops.
  const std::vector<SimTime> bare = run_stream(FaultPlan{}, 50);
  ASSERT_EQ(bare.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(bare[static_cast<std::size_t>(i)], static_cast<double>(i) + 0.05);
  }
}

TEST(NetworkFaults, DropsAreDeterministicUnderAFixedSeed) {
  FaultPlan plan;
  plan.drop_prob = 0.3;
  plan.seed = 7;
  const auto first = run_stream(plan, 200);
  const auto second = run_stream(plan, 200);
  EXPECT_EQ(first, second);
  EXPECT_LT(first.size(), 200u);  // some losses at 30%

  plan.seed = 8;  // a different seed loses different messages
  const auto other = run_stream(plan, 200);
  EXPECT_NE(first, other);
}

TEST(NetworkFaults, DropRateApproximatesTheConfiguredProbability) {
  FaultPlan plan;
  plan.drop_prob = 0.2;
  const auto delivered = run_stream(plan, 1000);
  const auto losses = 1000 - static_cast<int>(delivered.size());
  EXPECT_GT(losses, 140);  // 200 ± generous slack
  EXPECT_LT(losses, 260);
}

TEST(NetworkFaults, JitterStaysBoundedAndDeterministic) {
  FaultPlan plan;
  plan.jitter_max = 0.4;
  const auto first = run_stream(plan, 100);
  ASSERT_EQ(first.size(), 100u);  // jitter delays, never drops
  for (int i = 0; i < 100; ++i) {
    const double base = static_cast<double>(i) + 0.05;
    EXPECT_GE(first[static_cast<std::size_t>(i)], base);
    EXPECT_LT(first[static_cast<std::size_t>(i)], base + 0.4);
  }
  EXPECT_EQ(first, run_stream(plan, 100));
}

TEST(NetworkFaults, PartitionDropsCrossingTrafficDuringItsWindow) {
  FaultPlan plan;
  plan.partitions.push_back({{"a.gridlb.sim"}, 3.0, 7.0});
  const auto delivered = run_stream(plan, 10);
  // Sends at t=3..6 fall inside [3,7); the rest cross normally.
  std::vector<SimTime> expected;
  for (const int i : {0, 1, 2, 7, 8, 9}) {
    expected.push_back(static_cast<double>(i) + 0.05);
  }
  EXPECT_EQ(delivered, expected);
}

TEST(NetworkFaults, PartitionSparesIntraIslandTraffic) {
  Engine engine;
  FaultPlan plan;
  plan.partitions.push_back({{"a.gridlb.sim", "b.gridlb.sim"}, 0.0, 10.0});
  Network network(engine, 0.05, plan);
  int received = 0;
  const EndpointId a = network.register_endpoint("a.gridlb.sim", 1, [](auto&) {});
  const EndpointId b = network.register_endpoint(
      "b.gridlb.sim", 2, [&received](const Message&) { ++received; });
  network.send(a, b, "same island");
  engine.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(network.fault_stats().dropped_partition, 0u);
}

TEST(NetworkFaults, DownEndpointDropsAtDeliveryTime) {
  Engine engine;
  FaultPlan plan;
  plan.jitter_max = 1e-9;  // activate the plan without visible effect
  Network network(engine, 0.05, plan);
  std::vector<std::string> inbox;
  const EndpointId a = network.register_endpoint("a.gridlb.sim", 1, [](auto&) {});
  const EndpointId b = network.register_endpoint(
      "b.gridlb.sim", 2,
      [&inbox](const Message& m) { inbox.push_back(m.payload); });

  network.send(a, b, "in flight when b dies");
  engine.schedule_at(0.01, [&]() { network.set_endpoint_up(b, false); });
  engine.schedule_at(1.0, [&]() { network.send(a, b, "sent while down"); });
  engine.schedule_at(2.0, [&]() { network.set_endpoint_up(b, true); });
  engine.schedule_at(3.0, [&]() { network.send(a, b, "after recovery"); });
  engine.run();

  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0], "after recovery");
  EXPECT_EQ(network.fault_stats().dropped_endpoint_down, 2u);
  EXPECT_TRUE(network.endpoint_up(b));
}

TEST(NetworkFaults, StatsBreakLossesDownByCause) {
  FaultPlan plan;
  plan.drop_prob = 0.5;
  plan.partitions.push_back({{"a.gridlb.sim"}, 0.0, 5.0});
  Engine engine;
  Network network(engine, 0.05, plan);
  const EndpointId a = network.register_endpoint("a.gridlb.sim", 1, [](auto&) {});
  const EndpointId b = network.register_endpoint("b.gridlb.sim", 2, [](auto&) {});
  for (int i = 0; i < 20; ++i) {
    engine.schedule_at(static_cast<double>(i), [&network, a, b]() {
      network.send(a, b, "x");
    });
  }
  engine.run();
  const FaultStats& stats = network.fault_stats();
  EXPECT_EQ(stats.dropped_partition, 5u);  // t=0..4 inside the window
  EXPECT_GT(stats.dropped_random, 0u);
  EXPECT_EQ(stats.dropped_total(),
            stats.dropped_random + stats.dropped_partition);
}

TEST(NetworkFaults, RejectsInvalidPlans) {
  Engine engine;
  {
    FaultPlan plan;
    plan.drop_prob = 1.0;  // would loop retries forever
    EXPECT_THROW(Network(engine, 0.05, plan), AssertionError);
  }
  {
    FaultPlan plan;
    plan.jitter_max = -0.1;
    EXPECT_THROW(Network(engine, 0.05, plan), AssertionError);
  }
  {
    FaultPlan plan;
    plan.partitions.push_back({{"a"}, 5.0, 2.0});  // until before from
    EXPECT_THROW(Network(engine, 0.05, plan), AssertionError);
  }
}

}  // namespace
}  // namespace gridlb::sim
