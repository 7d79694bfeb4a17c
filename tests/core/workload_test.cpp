#include "core/workload.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/assert.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::core {
namespace {

struct WorkloadFixture : ::testing::Test {
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
};

TEST_F(WorkloadFixture, GeneratesRequestedCountAtFixedIntervals) {
  WorkloadConfig config;
  config.count = 600;
  config.interval = 1.0;
  const auto workload = generate_workload(config, catalogue, 12);
  ASSERT_EQ(workload.size(), 600u);
  // "requests ... are sent at one second intervals"; the request phase
  // lasts ten minutes.
  EXPECT_DOUBLE_EQ(workload.front().at, 1.0);
  EXPECT_DOUBLE_EQ(workload.back().at, 600.0);
  for (std::size_t i = 1; i < workload.size(); ++i) {
    EXPECT_DOUBLE_EQ(workload[i].at - workload[i - 1].at, 1.0);
  }
}

TEST_F(WorkloadFixture, SameSeedSameWorkload) {
  WorkloadConfig config;
  config.seed = 2003;
  const auto a = generate_workload(config, catalogue, 12);
  const auto b = generate_workload(config, catalogue, 12);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].agent_index, b[i].agent_index);
    EXPECT_EQ(a[i].app_name, b[i].app_name);
    EXPECT_DOUBLE_EQ(a[i].deadline_offset, b[i].deadline_offset);
  }
}

TEST_F(WorkloadFixture, DifferentSeedsDiffer) {
  WorkloadConfig a_config;
  a_config.seed = 1;
  WorkloadConfig b_config;
  b_config.seed = 2;
  const auto a = generate_workload(a_config, catalogue, 12);
  const auto b = generate_workload(b_config, catalogue, 12);
  int differences = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].agent_index != b[i].agent_index ||
        a[i].app_name != b[i].app_name) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 100);
}

TEST_F(WorkloadFixture, AgentsAreInRangeAndAllUsed) {
  WorkloadConfig config;
  const auto workload = generate_workload(config, catalogue, 12);
  std::set<int> agents;
  for (const auto& spec : workload) {
    ASSERT_GE(spec.agent_index, 0);
    ASSERT_LT(spec.agent_index, 12);
    agents.insert(spec.agent_index);
  }
  EXPECT_EQ(agents.size(), 12u);
}

TEST_F(WorkloadFixture, AllApplicationsAppear) {
  WorkloadConfig config;
  const auto workload = generate_workload(config, catalogue, 12);
  std::set<std::string> apps;
  for (const auto& spec : workload) apps.insert(spec.app_name);
  EXPECT_EQ(apps.size(), 7u);
}

TEST_F(WorkloadFixture, DeadlinesRespectTable1Domains) {
  WorkloadConfig config;
  const auto workload = generate_workload(config, catalogue, 12);
  for (const auto& spec : workload) {
    const auto model = catalogue.find(spec.app_name);
    ASSERT_NE(model, nullptr);
    const auto domain = model->deadline_domain();
    EXPECT_GE(spec.deadline_offset, domain.lo) << spec.app_name;
    EXPECT_LE(spec.deadline_offset, domain.hi) << spec.app_name;
  }
}

TEST_F(WorkloadFixture, RoughlyUniformAgentSelection) {
  WorkloadConfig config;
  config.count = 6000;
  const auto workload = generate_workload(config, catalogue, 12);
  std::map<int, int> counts;
  for (const auto& spec : workload) ++counts[spec.agent_index];
  for (const auto& [agent, count] : counts) {
    EXPECT_NEAR(count, 500, 150) << "agent " << agent;
  }
}

TEST_F(WorkloadFixture, ValidatesArguments) {
  WorkloadConfig config;
  config.count = -1;
  EXPECT_THROW(generate_workload(config, catalogue, 12), AssertionError);
  config = WorkloadConfig{};
  config.interval = 0.0;
  EXPECT_THROW(generate_workload(config, catalogue, 12), AssertionError);
  config = WorkloadConfig{};
  config.deadline_scale = 0.0;
  EXPECT_THROW(generate_workload(config, catalogue, 12), AssertionError);
  config = WorkloadConfig{};
  EXPECT_THROW(generate_workload(config, catalogue, 0), AssertionError);
  const pace::ApplicationCatalogue empty;
  EXPECT_THROW(generate_workload(config, empty, 12), AssertionError);
}

TEST_F(WorkloadFixture, ZeroCountIsEmpty) {
  WorkloadConfig config;
  config.count = 0;
  EXPECT_TRUE(generate_workload(config, catalogue, 12).empty());
}

}  // namespace
}  // namespace gridlb::core
