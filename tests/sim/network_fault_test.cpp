// The deterministic fault plan (DESIGN.md §10): drops and jitter, plus
// endpoint outages, all reproducible from the plan's seed — plus the
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
  const EndpointId a = network.register_endpoint([](auto&) {});
  const EndpointId b = network.register_endpoint(
      [&](const Message&) { delivered.push_back(engine.now()); });
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

TEST(NetworkFaults, DownEndpointDropsAtDeliveryTime) {
  Engine engine;
  FaultPlan plan;
  plan.jitter_max = 1e-9;  // activate the plan without visible effect
  Network network(engine, 0.05, plan);
  std::vector<std::string> inbox;
  const EndpointId a = network.register_endpoint([](auto&) {});
  const EndpointId b = network.register_endpoint(
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
}

TEST(NetworkFaults, StatsBreakLossesDownByCause) {
  FaultPlan plan;
  plan.drop_prob = 0.5;
  Engine engine;
  Network network(engine, 0.05, plan);
  int received = 0;
  const EndpointId a = network.register_endpoint([](auto&) {});
  const EndpointId b = network.register_endpoint(
      [&received](const Message&) { ++received; });
  // b is down for the sends at t=0..4; the plan's losses happen at send
  // time, before an outage could claim the message.
  network.set_endpoint_up(b, false);
  engine.schedule_at(4.5,
                     [&network, b]() { network.set_endpoint_up(b, true); });
  for (int i = 0; i < 20; ++i) {
    engine.schedule_at(static_cast<double>(i), [&network, a, b]() {
      network.send(a, b, "x");
    });
  }
  engine.run();
  const FaultStats& stats = network.fault_stats();
  EXPECT_GT(stats.dropped_random, 0u);
  EXPECT_GT(stats.dropped_endpoint_down, 0u);
  EXPECT_EQ(stats.dropped_by_plan(), stats.dropped_random);
  EXPECT_EQ(stats.dropped_random + stats.dropped_endpoint_down +
                static_cast<std::uint64_t>(received),
            20u);
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
}

}  // namespace
}  // namespace gridlb::sim
