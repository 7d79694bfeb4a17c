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
//      retries, duplicate suppression and portal resubmission — the
//      fault counters account for the recovery work, and a run with the
//      whole fault stack repeats exactly.
#include <gtest/gtest.h>

#include <set>

#include "core/experiment.hpp"
#include "core/scenario.hpp"

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
  const ExperimentResult result = run_experiment(scaled(experiment3(), 40));
  expect_pinned(result, {42.436478149999992, 0.53103311520920016,
                         0.60909669468947114, 85.049999999999997, 492, 741,
                         40});
  // Prediction traffic: 7 applications × 5 platforms × 16 nodes, one
  // engine evaluation per table entry; the agents' eq. 10 reads come on
  // top of the schedulers' own.
  EXPECT_EQ(result.cache.misses, 560u);
  EXPECT_GT(result.cache.hits, result.table_reads);
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
// protocol loses those requests and the run never drains.  With no fault
// plan, the plan drops nothing: the messages that reached a crashed agent
// count as outage losses instead.
TEST(FaultedRegression, AgentChurnAloneCompletesEveryTask) {
  ExperimentConfig config = scaled(experiment3(), 600);
  config.system.agent_churn.enabled = true;

  const ExperimentResult result = run_experiment(config);

  EXPECT_GT(result.agent_crashes, 0u);
  EXPECT_EQ(result.messages_dropped, 0u);
  EXPECT_GT(result.messages_lost_outage, 0u);
  ASSERT_EQ(result.tasks_completed, 600u);
  std::set<TaskId> seen;
  for (const auto& record : result.completions) {
    EXPECT_TRUE(seen.insert(record.task).second)
        << "task " << record.task.value() << " completed twice";
  }
  EXPECT_EQ(seen.size(), 600u);
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.report.total.advance_time, b.report.total.advance_time);
  EXPECT_EQ(a.report.total.utilisation, b.report.total.utilisation);
  EXPECT_EQ(a.report.total.balance, b.report.total.balance);
  ASSERT_EQ(a.report.resources.size(), b.report.resources.size());
  for (std::size_t i = 0; i < a.report.resources.size(); ++i) {
    EXPECT_EQ(a.report.resources[i].advance_time,
              b.report.resources[i].advance_time);
    EXPECT_EQ(a.report.resources[i].utilisation,
              b.report.resources[i].utilisation);
    EXPECT_EQ(a.report.resources[i].balance, b.report.resources[i].balance);
  }
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].task, b.completions[i].task);
    EXPECT_EQ(a.completions[i].resource, b.completions[i].resource);
    EXPECT_EQ(a.completions[i].start, b.completions[i].start);
    EXPECT_EQ(a.completions[i].end, b.completions[i].end);
  }
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.tasks_dropped, b.tasks_dropped);
  EXPECT_EQ(a.mean_hops, b.mean_hops);
  EXPECT_EQ(a.network_messages, b.network_messages);
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_lost_outage, b.messages_lost_outage);
  EXPECT_EQ(a.message_retries, b.message_retries);
  EXPECT_EQ(a.sends_expired, b.sends_expired);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  EXPECT_EQ(a.agent_crashes, b.agent_crashes);
  EXPECT_EQ(a.agent_restarts, b.agent_restarts);
  EXPECT_EQ(a.tasks_resubmitted, b.tasks_resubmitted);
}

// Everything at once on a generated 24-agent grid — message loss and
// jitter, node churn, agent crash/restart cycles — completes every task,
// and a second run repeats the first exactly.
TEST(FaultedRegression, FullFaultStackRepeatsExactly) {
  ScenarioSpec spec;
  spec.agent_count = 24;
  spec.requests_per_agent = 8;
  spec.arrival_interval = 0.0;  // auto per-agent rate
  ExperimentConfig config = scenario_experiment(spec);
  config.system.fault.drop_prob = 0.04;
  config.system.fault.jitter_max = 0.3;
  config.system.fault.seed = 5;
  config.system.churn.enabled = true;
  config.system.churn.mtbf = 900.0;
  config.system.churn.mttr = 60.0;
  config.system.churn.horizon = 400.0;
  config.system.agent_churn.enabled = true;
  config.system.agent_churn.mtbf = 2500.0;
  config.system.agent_churn.mttr = 20.0;
  config.system.agent_churn.horizon = 400.0;

  const ExperimentResult first = run_experiment(config);
  EXPECT_EQ(first.tasks_completed, first.requests_submitted);
  expect_identical(run_experiment(config), first);
}

}  // namespace
}  // namespace gridlb::core
