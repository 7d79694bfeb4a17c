// Threshold-triggered queue migration (DESIGN.md §16).
//
// Migration re-homes *queued* tasks only: a task the local scheduler has
// already started must never move, every migrated task must complete
// exactly once, and the machinery must not lose work when the network
// drops messages and agents crash mid-flight.  Everything here runs
// closed-loop, so "nothing lost" is simply completed == submitted.
#include <gtest/gtest.h>

#include <set>

#include "core/experiment.hpp"
#include "core/scenario.hpp"

namespace gridlb::agents {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::ScenarioSpec;

/// A bursty, overloaded grid small enough to drain in test time: ON/OFF
/// arrivals at 2× the Fig. 7 offered rate pile queues past the overload
/// watermark while OFF phases leave neighbours idle enough to accept.
ExperimentConfig overloaded_config(bool migrate) {
  ScenarioSpec spec;
  spec.agent_count = 24;
  spec.requests_per_agent = 10;
  spec.arrival_interval = 0.5;
  ExperimentConfig config = core::scenario_experiment(spec);
  config.workload.arrival = core::ArrivalProcess::kOnOff;
  config.system.migration.enabled = migrate;
  return config;
}

void expect_each_task_completes_once(const ExperimentResult& result) {
  ASSERT_EQ(result.tasks_completed, result.requests_submitted);
  std::set<TaskId> seen;
  for (const auto& record : result.completions) {
    EXPECT_TRUE(seen.insert(record.task).second)
        << "task " << record.task.value() << " completed twice";
  }
  EXPECT_EQ(seen.size(), result.requests_submitted);
}

TEST(Migration, TriggersUnderOverloadAndLosesNothing) {
  const ExperimentResult result = run_experiment(overloaded_config(true));
  EXPECT_GT(result.migrations, 0u);
  expect_each_task_completes_once(result);
  // The result aggregate is exactly the sum of the per-agent counters.
  std::uint64_t per_agent = 0;
  for (const auto& stats : result.agent_stats) per_agent += stats.migrations;
  EXPECT_EQ(result.migrations, per_agent);
}

TEST(Migration, OffByDefaultAndCountersStayZero) {
  const ExperimentResult result = run_experiment(overloaded_config(false));
  EXPECT_EQ(result.migrations, 0u);
  expect_each_task_completes_once(result);
  ExperimentConfig preset = core::experiment3();
  EXPECT_FALSE(preset.system.migration.enabled);
}

TEST(Migration, DeterministicAndShardInvariant) {
  ExperimentConfig config = overloaded_config(true);
  const ExperimentResult reference = run_experiment(config);
  EXPECT_GT(reference.migrations, 0u);
  for (const int shards : {2, 3}) {
    config.system.sim_shards = shards;
    const ExperimentResult sharded = run_experiment(config);
    EXPECT_EQ(sharded.migrations, reference.migrations);
    EXPECT_EQ(sharded.tasks_completed, reference.tasks_completed);
    EXPECT_EQ(sharded.network_messages, reference.network_messages);
    EXPECT_EQ(sharded.report.total.balance, reference.report.total.balance);
    EXPECT_EQ(sharded.finished_at, reference.finished_at);
    ASSERT_EQ(sharded.completions.size(), reference.completions.size());
    for (std::size_t i = 0; i < sharded.completions.size(); ++i) {
      EXPECT_EQ(sharded.completions[i].task, reference.completions[i].task);
      EXPECT_EQ(sharded.completions[i].end, reference.completions[i].end);
    }
  }
}

TEST(Migration, SurvivesMessageLossAndAgentChurn) {
  // Migration documents ride the ReliableLink, and a crash clears the
  // crashed agent's queue copies while the portal re-discovers stranded
  // tasks — so 5% drop plus churn must still complete the whole batch.
  ExperimentConfig config = overloaded_config(true);
  config.system.fault.drop_prob = 0.05;
  config.system.fault.seed = 11;
  config.system.agent_churn.enabled = true;
  config.system.agent_churn.mtbf = 2000.0;
  config.system.agent_churn.mttr = 20.0;
  config.system.agent_churn.horizon = 300.0;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.migrations, 0u);
  EXPECT_GT(result.messages_dropped, 0u);
  expect_each_task_completes_once(result);
}

}  // namespace
}  // namespace gridlb::agents
