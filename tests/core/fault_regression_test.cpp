// Fault-model regression pins.
//
// Two guarantees from DESIGN.md §10 are pinned here:
//   1. The zero-fault path is bit-for-bit identical to the pre-fault-model
//      implementation: with `FaultPlan` inactive and no agent churn (so the
//      protocol is not loss-tolerant), experiments 1–3 and the central
//      oracle reproduce the exact values recorded before the fault
//      subsystem existed (the literals below).  Any change to these
//      numbers means the fault machinery leaked into the perfect-delivery
//      path.
//   2. With faults enabled (message drop and/or agent churn), the grid
//      degrades gracefully: every submitted task still completes — via
//      retries, duplicate suppression and portal resubmission — and the
//      fault counters account for the recovery work.
#include <gtest/gtest.h>

#include <set>

#include "core/experiment.hpp"

namespace gridlb::core {
namespace {

ExperimentConfig scaled(ExperimentConfig config, int requests) {
  config.workload.count = requests;
  return config;
}

struct Pin {
  double advance_time;
  double utilisation;
  double balance;
  double finished_at;
  std::uint64_t network_messages;
  std::uint64_t sim_events;
  std::uint64_t tasks_completed;
};

void expect_pinned(const ExperimentResult& result, const Pin& pin) {
  // EXPECT_EQ (not NEAR/DOUBLE_EQ): the contract is bit-for-bit.
  EXPECT_EQ(result.report.total.advance_time, pin.advance_time);
  EXPECT_EQ(result.report.total.utilisation, pin.utilisation);
  EXPECT_EQ(result.report.total.balance, pin.balance);
  EXPECT_EQ(result.finished_at, pin.finished_at);
  EXPECT_EQ(result.network_messages, pin.network_messages);
  EXPECT_EQ(result.sim_events, pin.sim_events);
  EXPECT_EQ(result.tasks_completed, pin.tasks_completed);
}

// Captured from the implementation immediately before the fault subsystem
// landed (40-request scaled runs of the Table 2 presets).
TEST(ZeroFaultRegression, Experiment1MatchesPreFaultModel) {
  expect_pinned(run_experiment(scaled(experiment1(), 40)),
                {31.930228150000012, 0.32170412613217014, 0.34760632607291164,
                 150.05000000000001, 80, 159, 40});
}

TEST(ZeroFaultRegression, Experiment2MatchesPreFaultModel) {
  expect_pinned(run_experiment(scaled(experiment2(), 40)),
                {34.085228150000013, 0.41933843471522581, 0.48157931187040892,
                 130.05000000000001, 80, 221, 40});
}

TEST(ZeroFaultRegression, Experiment3MatchesPreFaultModel) {
  expect_pinned(run_experiment(scaled(experiment3(), 40)),
                {42.436478149999992, 0.53103311520920016, 0.60909669468947114,
                 85.049999999999997, 492, 741, 40});
}

TEST(ZeroFaultRegression, CentralOracleMatchesPreFaultModel) {
  ExperimentConfig config = scaled(experiment3(), 40);
  config.placement = PlacementFamily::kCentralOracle;
  expect_pinned(run_experiment(config),
                {47.200228217807592, 0.53040994623655902, 0.40738605647678783,
                 63.0, 0, 146, 40});
}

// The oracle's open-loop path: an overloaded 80-request burst cut off at
// 30 s, so the run stops on the duration with tasks still queued.  The
// sampler's ticks are engine events of their own; with it on, every value
// must stay the same.
TEST(ZeroFaultRegression, CentralOracleOpenLoopCutoff) {
  ExperimentConfig config = scaled(experiment3(), 80);
  config.placement = PlacementFamily::kCentralOracle;
  config.workload.interval = 0.25;
  config.duration = 30.0;
  ExperimentConfig sampled = config;
  sampled.obs.trace = true;
  sampled.obs.metrics = true;
  sampled.obs.metrics_interval = 5.0;
  for (const ExperimentConfig& run : {config, sampled}) {
    const ExperimentResult result = run_experiment(run);
    EXPECT_EQ(result.report.total.advance_time, 28.040549936613001);
    EXPECT_EQ(result.report.total.utilisation, 0.59705459770115021);
    EXPECT_EQ(result.report.total.balance, 0.54338021155328631);
    EXPECT_EQ(result.finished_at, 29.5);
    EXPECT_EQ(result.sim_events, 203u);
    EXPECT_EQ(result.tasks_completed, 22u);
    EXPECT_EQ(result.tasks_unfinished, 58u);
    EXPECT_EQ(result.latency_p99, 22.899999999999999);
  }
}

TEST(FaultedRegression, LossAndChurnDegradeGracefully) {
  ExperimentConfig config = scaled(experiment3(), 60);
  config.system.fault.drop_prob = 0.05;
  config.system.fault.seed = 11;
  config.system.agent_churn.enabled = true;
  config.system.agent_churn.mtbf = 40.0;  // harsh: several crashes per run
  config.system.agent_churn.mttr = 5.0;
  config.system.agent_churn.horizon = 200.0;

  const ExperimentResult result = run_experiment(config);

  // Graceful degradation: the grid loses messages and whole agents, yet
  // every submitted task still completes exactly once.
  EXPECT_EQ(result.tasks_completed, 60u);
  EXPECT_GT(result.messages_dropped, 0u);
  EXPECT_GT(result.message_retries, 0u);
  EXPECT_GT(result.agent_crashes, 0u);
  EXPECT_GT(result.agent_restarts, 0u);
}

// Agent churn alone, on a lossless network, is a fault source: a crashed
// agent strands its queue and the requests it was forwarding, so the
// protocol must be loss-tolerant without any explicit switch.  A plain
// protocol loses those requests and the run never drains.
TEST(FaultedRegression, AgentChurnAloneCompletesEveryTask) {
  ExperimentConfig config = scaled(experiment3(), 600);
  config.system.agent_churn.enabled = true;

  const ExperimentResult result = run_experiment(config);

  EXPECT_GT(result.agent_crashes, 0u);
  ASSERT_EQ(result.tasks_completed, 600u);
  std::set<TaskId> seen;
  for (const auto& record : result.completions) {
    EXPECT_TRUE(seen.insert(record.task).second)
        << "task " << record.task.value() << " completed twice";
  }
  EXPECT_EQ(seen.size(), 600u);
}

}  // namespace
}  // namespace gridlb::core
