#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::core {
namespace {

/// Depth of each agent in the generated tree (root = 0).  Relies on the
/// parent-first ordering the generator guarantees.
std::vector<int> depths(const std::vector<agents::ResourceSpec>& resources) {
  std::vector<int> out(resources.size(), 0);
  for (std::size_t i = 0; i < resources.size(); ++i) {
    const int parent = resources[i].parent;
    if (parent >= 0) out[i] = out[static_cast<std::size_t>(parent)] + 1;
  }
  return out;
}

TEST(ScenarioResources, FanoutTreeShape) {
  ScenarioSpec spec;
  spec.agent_count = 13;
  spec.fanout = 3;
  const auto resources = scenario_resources(spec);
  ASSERT_EQ(resources.size(), 13u);
  // Exactly one head, and every parent precedes its children.
  EXPECT_EQ(resources[0].parent, -1);
  std::vector<int> children(resources.size(), 0);
  for (std::size_t i = 1; i < resources.size(); ++i) {
    ASSERT_GE(resources[i].parent, 0);
    ASSERT_LT(resources[i].parent, static_cast<int>(i));
    ++children[static_cast<std::size_t>(resources[i].parent)];
  }
  // Complete ternary tree of 13: the first four agents have 3 children.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(children[i], 3);
  for (std::size_t i = 4; i < resources.size(); ++i) {
    EXPECT_EQ(children[i], 0);
  }
  // Depth is logarithmic: 1 + 3 + 9 = 13 agents fit in depth 2.
  const auto depth = depths(resources);
  EXPECT_EQ(*std::max_element(depth.begin(), depth.end()), 2);
}

TEST(ScenarioResources, FanoutOneIsAChain) {
  ScenarioSpec spec;
  spec.agent_count = 5;
  spec.fanout = 1;
  const auto resources = scenario_resources(spec);
  for (std::size_t i = 1; i < resources.size(); ++i) {
    EXPECT_EQ(resources[i].parent, static_cast<int>(i) - 1);
  }
}

TEST(ScenarioResources, NamesAndNodeCountsFollowTheSpec) {
  ScenarioSpec spec;
  spec.agent_count = 4;
  const auto resources = scenario_resources(spec);
  EXPECT_EQ(resources[0].name, "S1");
  EXPECT_EQ(resources[3].name, "S4");
  for (const auto& resource : resources) {
    EXPECT_EQ(resource.node_count, 16);
  }
}

TEST(ScenarioResources, HardwareMixCycles) {
  // All five case-study platforms in turn, fastest first.
  ScenarioSpec spec;
  spec.agent_count = 12;
  const auto resources = scenario_resources(spec);
  const auto& platforms = pace::all_hardware_types();
  ASSERT_EQ(platforms.size(), 5u);
  EXPECT_EQ(platforms.front(), pace::HardwareType::kSgiOrigin2000);
  for (std::size_t i = 0; i < resources.size(); ++i) {
    EXPECT_EQ(resources[i].hardware, platforms[i % platforms.size()])
        << resources[i].name;
  }
  for (std::size_t i = 1; i < platforms.size(); ++i) {
    EXPECT_GT(pace::performance_factor(platforms[i]),
              pace::performance_factor(platforms[i - 1]));
  }
}

TEST(ScenarioWorkload, ScalesWithTheGrid) {
  ScenarioSpec spec;
  spec.agent_count = 96;
  spec.requests_per_agent = 25;
  spec.arrival_interval = 0.5;
  spec.deadline_scale = 0.8;
  spec.workload_seed = 77;
  const WorkloadConfig workload = scenario_workload(spec);
  EXPECT_EQ(workload.count, 96 * 25);
  EXPECT_DOUBLE_EQ(workload.interval, 0.5);
  EXPECT_DOUBLE_EQ(workload.deadline_scale, 0.8);
  EXPECT_EQ(workload.seed, 77u);
}

TEST(ScenarioWorkload, DeadlineScaleTightensDeadlines) {
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  ScenarioSpec spec;
  spec.agent_count = 12;
  const auto loose =
      generate_workload(scenario_workload(spec), catalogue, 12);
  spec.deadline_scale = 0.5;
  const auto tight =
      generate_workload(scenario_workload(spec), catalogue, 12);
  ASSERT_EQ(loose.size(), tight.size());
  for (std::size_t i = 0; i < loose.size(); ++i) {
    // Same draws (same seed), scaled deadlines only.
    EXPECT_EQ(loose[i].agent_index, tight[i].agent_index);
    EXPECT_EQ(loose[i].app_name, tight[i].app_name);
    EXPECT_DOUBLE_EQ(tight[i].deadline_offset,
                     loose[i].deadline_offset * 0.5);
  }
}

TEST(ScenarioExperiment, WiresGridAndWorkloadTogether) {
  ScenarioSpec spec;
  spec.agent_count = 24;
  spec.requests_per_agent = 10;
  const ExperimentConfig config = scenario_experiment(spec);
  EXPECT_EQ(config.system.resources.size(), 24u);
  EXPECT_EQ(config.workload.count, 240);
  // Configured like experiment 3: GA local scheduling + discovery.
  EXPECT_EQ(config.system.policy, sched::SchedulerPolicy::kGa);
  EXPECT_TRUE(config.system.discovery_enabled);
  EXPECT_EQ(config.name, "scenario (24 agents, fanout 3, 240 requests)");
}

TEST(ScenarioExperiment, GeneratedGridRunsToCompletion) {
  ScenarioSpec spec;
  spec.agent_count = 27;
  spec.requests_per_agent = 3;
  const ExperimentResult result =
      run_experiment(scenario_experiment(spec));
  EXPECT_EQ(result.tasks_completed, 81u);
  EXPECT_EQ(result.tasks_dropped, 0u);
}

TEST(ScenarioSpec, ValidatesItsFields) {
  const auto reject = [](auto mutate) {
    ScenarioSpec spec;
    mutate(spec);
    EXPECT_THROW((void)scenario_resources(spec), AssertionError);
  };
  reject([](ScenarioSpec& spec) { spec.agent_count = 0; });
  reject([](ScenarioSpec& spec) { spec.fanout = 0; });
  reject([](ScenarioSpec& spec) { spec.requests_per_agent = -1; });
  reject([](ScenarioSpec& spec) { spec.arrival_interval = -1.0; });
  reject([](ScenarioSpec& spec) { spec.deadline_scale = 0.0; });
}

TEST(ScenarioSpec, ZeroArrivalIntervalMeansAutoPerAgentRate) {
  ScenarioSpec spec;
  spec.agent_count = 48;
  spec.arrival_interval = 0.0;
  // Auto holds the Fig. 7 per-agent rate: 12 s spacing at 12 agents.
  EXPECT_EQ(scenario_workload(spec).interval, 0.25);
  spec.arrival_interval = 2.0;  // explicit spacing passes through
  EXPECT_EQ(scenario_workload(spec).interval, 2.0);
}

}  // namespace
}  // namespace gridlb::core
