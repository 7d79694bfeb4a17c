// PlacementFamily dispatch (DESIGN.md §15): name parsing and the hashed
// family's contracts — zero discovery traffic and seed determinism.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/assert.hpp"
#include "core/experiment.hpp"

namespace gridlb::core {
namespace {

ExperimentConfig small_crush() {
  ExperimentConfig config = experiment3();
  config.name = "crush";
  config.placement = PlacementFamily::kHashPlacement;
  config.workload.count = 40;
  return config;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.report.total.advance_time, b.report.total.advance_time);
  EXPECT_EQ(a.report.total.utilisation, b.report.total.utilisation);
  EXPECT_EQ(a.report.total.balance, b.report.total.balance);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].task, b.completions[i].task);
    EXPECT_EQ(a.completions[i].resource, b.completions[i].resource);
    EXPECT_EQ(a.completions[i].start, b.completions[i].start);
    EXPECT_EQ(a.completions[i].end, b.completions[i].end);
  }
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.mean_hops, b.mean_hops);
  EXPECT_EQ(a.network_messages, b.network_messages);
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.placement_decisions, b.placement_decisions);
}

TEST(PlacementFamily, NamesRoundTrip) {
  for (const auto family :
       {PlacementFamily::kAgentDiscovery, PlacementFamily::kCentralOracle,
        PlacementFamily::kHashPlacement}) {
    EXPECT_EQ(placement_family_from_name(placement_family_name(family)),
              family);
  }
}

TEST(PlacementFamily, RetiredAliasesAreUnknownNames) {
  for (const char* alias : {"discovery", "central-oracle", "oracle", "hash"}) {
    try {
      (void)placement_family_from_name(alias);
      ADD_FAILURE() << alias << " still parses";
    } catch (const AssertionError& error) {
      EXPECT_NE(std::string(error.what()).find(
                    std::string("unknown placement family: ") + alias),
                std::string::npos);
    }
  }
}

TEST(PlacementFamily, UnknownNameFailsWithValidValues) {
  try {
    (void)placement_family_from_name("dht");
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& error) {
    // Actionable: the message must name the input and the valid values.
    EXPECT_NE(std::string(error.what()).find("dht"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("crush"), std::string::npos);
  }
}

TEST(PlacementFamily, CrushUsesZeroDiscoveryMessages) {
  const ExperimentResult result = run_experiment(small_crush());
  EXPECT_EQ(result.tasks_completed, result.requests_submitted);
  EXPECT_EQ(result.placement_decisions, result.requests_submitted);
  EXPECT_EQ(result.mean_hops, 0.0);
  std::uint64_t discovery = 0;
  for (const auto& stats : result.agent_stats) {
    discovery += stats.pulls_sent + stats.advertisements_received +
                 stats.forwarded_match + stats.forwarded_up;
  }
  EXPECT_EQ(discovery, 0u);
}

TEST(PlacementFamily, AgentFamilyReportsZeroPlacements) {
  ExperimentConfig config = experiment3();
  config.workload.count = 40;
  EXPECT_EQ(run_experiment(config).placement_decisions, 0u);
}

TEST(PlacementFamily, CrushIsSeedDeterministic) {
  const ExperimentResult first = run_experiment(small_crush());
  EXPECT_EQ(first.tasks_completed, first.requests_submitted);
  const ExperimentResult second = run_experiment(small_crush());
  expect_identical(second, first);
}

TEST(PlacementFamily, CrushRidesFaultToleranceUnderLossAndChurn) {
  // Lossy network + agent crashes: the hashed submissions ride the
  // reliable link, so every task still completes — degraded, not broken.
  ExperimentConfig config = small_crush();
  config.system.fault.drop_prob = 0.05;
  config.system.fault.jitter_max = 0.2;
  config.system.fault.seed = 9;
  config.system.agent_churn.enabled = true;
  config.system.agent_churn.mtbf = 1500.0;
  config.system.agent_churn.mttr = 20.0;
  config.system.agent_churn.horizon = 300.0;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.tasks_completed, result.requests_submitted);
  EXPECT_EQ(result.placement_decisions, result.requests_submitted);
  const ExperimentResult repeat = run_experiment(config);
  expect_identical(repeat, result);
}

}  // namespace
}  // namespace gridlb::core
