#include "agents/agent_system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "agents/portal.hpp"
#include "common/assert.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::agents {
namespace {

struct AgentSystemFixture : ::testing::Test {
  sim::Engine engine;
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();

  SystemConfig two_level() {
    SystemConfig config;
    config.resources = {
        {"A", pace::HardwareType::kSgiOrigin2000, 16, -1},
        {"B", pace::HardwareType::kSunUltra10, 8, 0},
        {"C", pace::HardwareType::kSunUltra1, 4, 0},
    };
    return config;
  }
};

TEST_F(AgentSystemFixture, BuildsAgentsAndSchedulers) {
  AgentSystem system(engine, catalogue, two_level(), nullptr);
  EXPECT_EQ(system.size(), 3u);
  EXPECT_EQ(system.head().name(), "A");
  EXPECT_EQ(system.agent(1).name(), "B");
  EXPECT_EQ(system.agent(1).scheduler().config().node_count, 8);
  EXPECT_EQ(system.agent(2).scheduler().config().resource.type,
            pace::HardwareType::kSunUltra1);
}

TEST_F(AgentSystemFixture, AssignsSequentialAgentIds) {
  AgentSystem system(engine, catalogue, two_level(), nullptr);
  EXPECT_EQ(system.agent(0).id(), AgentId(1));
  EXPECT_EQ(system.agent(2).id(), AgentId(3));
}

TEST_F(AgentSystemFixture, AgentNamedThrowsOnUnknown) {
  AgentSystem system(engine, catalogue, two_level(), nullptr);
  EXPECT_NO_THROW((void)system.agent_named("B"));
  EXPECT_THROW((void)system.agent_named("Z"), AssertionError);
}

TEST_F(AgentSystemFixture, AgentIndexOutOfRangeThrows) {
  AgentSystem system(engine, catalogue, two_level(), nullptr);
  EXPECT_THROW((void)system.agent(3), AssertionError);
}

TEST_F(AgentSystemFixture, RejectsEmptyResourceList) {
  SystemConfig config;
  EXPECT_THROW(AgentSystem(engine, catalogue, std::move(config), nullptr),
               AssertionError);
}

TEST_F(AgentSystemFixture, RejectsTwoHeads) {
  SystemConfig config;
  config.resources = {
      {"A", pace::HardwareType::kSgiOrigin2000, 16, -1},
      {"B", pace::HardwareType::kSunUltra10, 16, -1},
  };
  EXPECT_THROW(AgentSystem(engine, catalogue, std::move(config), nullptr),
               AssertionError);
}

TEST_F(AgentSystemFixture, RejectsForwardParentReference) {
  SystemConfig config;
  config.resources = {
      {"A", pace::HardwareType::kSgiOrigin2000, 16, 1},  // parent after child
      {"B", pace::HardwareType::kSunUltra10, 16, -1},
  };
  EXPECT_THROW(AgentSystem(engine, catalogue, std::move(config), nullptr),
               AssertionError);
}

TEST_F(AgentSystemFixture, RejectsSelfParent) {
  SystemConfig config;
  config.resources = {
      {"A", pace::HardwareType::kSgiOrigin2000, 16, -1},
      {"B", pace::HardwareType::kSunUltra10, 16, 1},  // own index
  };
  EXPECT_THROW(AgentSystem(engine, catalogue, std::move(config), nullptr),
               AssertionError);
}

TEST_F(AgentSystemFixture, ValidateRejectsOutOfRangeKnobs) {
  const auto rejects = [this](SystemConfig config) {
    EXPECT_THROW(config.validate(), AssertionError);
    EXPECT_THROW(AgentSystem(engine, catalogue, std::move(config), nullptr),
                 AssertionError);
  };
  EXPECT_NO_THROW(two_level().validate());
  SystemConfig config = two_level();
  config.fault.drop_prob = 1.0;
  rejects(config);
  config = two_level();
  config.prediction_error = 1.0;
  rejects(config);
  config = two_level();
  config.churn.enabled = true;
  config.churn.mttr = 0.0;
  rejects(config);
  config = two_level();
  config.agent_churn.enabled = true;
  config.agent_churn.mttr = 0.0;
  rejects(config);
  // 0.001 s is positive but under one network latency (kNetworkLatency).
  for (const double period : {-1.0, std::nan(""),
                              std::numeric_limits<double>::infinity(),
                              0.001}) {
    config = two_level();
    config.pull_period = period;
    rejects(config);
  }
}

TEST_F(AgentSystemFixture, RegistersResourcesWithCollector) {
  metrics::MetricsCollector collector;
  AgentSystem system(engine, catalogue, two_level(), &collector);
  const auto report = collector.report();
  ASSERT_EQ(report.resources.size(), 3u);
  EXPECT_EQ(report.resources[0].label, "A");
  EXPECT_EQ(report.resources[2].label, "C");
}

TEST_F(AgentSystemFixture, CompletionsFlowIntoCollector) {
  metrics::MetricsCollector collector;
  AgentSystem system(engine, catalogue, two_level(), &collector);
  system.start();
  Portal portal(engine, system.network(), catalogue, &collector);
  portal.submit(system.agent_named("B"), "closure", 1000.0);
  engine.run_until(3600.0);  // advertisement pulls never drain the queue
  EXPECT_EQ(collector.completed_tasks(), 1u);
}

TEST_F(AgentSystemFixture, PortalAssignsUniqueTaskIds) {
  metrics::MetricsCollector collector;
  AgentSystem system(engine, catalogue, two_level(), &collector);
  system.start();
  Portal portal(engine, system.network(), catalogue, &collector);
  const TaskId a = portal.submit(system.head(), "fft", 1000.0);
  const TaskId b = portal.submit(system.head(), "fft", 1000.0);
  EXPECT_EQ(a, TaskId(1));  // numbered by place in the submission list
  EXPECT_EQ(b, TaskId(2));
}

TEST_F(AgentSystemFixture, PortalRejectsUnknownApplication) {
  AgentSystem system(engine, catalogue, two_level(), nullptr);
  Portal portal(engine, system.network(), catalogue, nullptr);
  EXPECT_THROW(portal.submit(system.head(), "linpack", 1000.0),
               AssertionError);
}

TEST_F(AgentSystemFixture, PortalRejectsPastDeadline) {
  AgentSystem system(engine, catalogue, two_level(), nullptr);
  Portal portal(engine, system.network(), catalogue, nullptr);
  engine.schedule_at(10.0, []() {});
  engine.run();
  EXPECT_THROW(portal.submit(system.head(), "fft", 5.0), AssertionError);
}

TEST_F(AgentSystemFixture, PerSchedulerSeedsDiffer) {
  // Distinct GA seeds per resource: identical workloads on two identical
  // resources may evolve differently, but more importantly seeds must be
  // deterministic across system constructions.
  AgentSystem first(engine, catalogue, two_level(), nullptr);
  sim::Engine engine2;
  AgentSystem second(engine2, catalogue, two_level(), nullptr);
  EXPECT_EQ(first.agent(0).scheduler().config().seed,
            second.agent(0).scheduler().config().seed);
  EXPECT_NE(first.agent(0).scheduler().config().seed,
            first.agent(1).scheduler().config().seed);
}

TEST_F(AgentSystemFixture, SharedEvaluatorCachesAcrossResources) {
  metrics::MetricsCollector collector;
  AgentSystem system(engine, catalogue, two_level(), &collector);
  system.start();
  Portal portal(engine, system.network(), catalogue, &collector);
  portal.submit(system.agent_named("B"), "closure", 1000.0);
  portal.submit(system.agent_named("B"), "closure", 1000.0);
  engine.run_until(3600.0);
  // One table serves every resource: the catalogue × the three platforms ×
  // the widest resource's 16 nodes, each entry evaluated once.
  const pace::PredictionTable& table = system.predictions();
  EXPECT_EQ(table.width(), 16);
  EXPECT_EQ(table.entries(), catalogue.size() * 3u * 16u);
  EXPECT_GT(system.agent_named("B").scheduler().prediction_table_reads(), 0u);
  EXPECT_GT(system.agent_named("B").table_reads(), 0u);
}

}  // namespace
}  // namespace gridlb::agents
