// Shard-count invariance pins (DESIGN.md §13).
//
// The contract is that `--sim-shards` changes nothing: the N queues are
// merged into one (at, seq) order, so a partitioned run produces the
// bit-for-bit identical ExperimentResult for any shard count.  This file
// pins that three ways:
//   1. The Table 2 presets at 2 and 4 shards reproduce the exact literals
//      recorded before the fault subsystem existed (the same numbers
//      tests/core/fault_regression_test.cpp pins at one shard).
//   2. A larger generated scenario — with faults, node churn and agent
//      churn all active — compares the full result field-by-field between
//      one shard and several.
//   3. A four-shard run with the full fault stack repeats exactly.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/experiment.hpp"
#include "core/scenario.hpp"

namespace gridlb::core {
namespace {

ExperimentConfig scaled(ExperimentConfig config, int requests, int shards) {
  config.workload.count = requests;
  config.system.sim_shards = shards;
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
  // EXPECT_EQ (not NEAR): the contract is bit-for-bit, not approximate.
  EXPECT_EQ(result.report.total.advance_time, pin.advance_time);
  EXPECT_EQ(result.report.total.utilisation, pin.utilisation);
  EXPECT_EQ(result.report.total.balance, pin.balance);
  EXPECT_EQ(result.finished_at, pin.finished_at);
  EXPECT_EQ(result.network_messages, pin.network_messages);
  EXPECT_EQ(result.sim_events, pin.sim_events);
  EXPECT_EQ(result.tasks_completed, pin.tasks_completed);
}

// The same literals fault_regression_test.cpp pins for the classic
// single-queue engine — the sharded runs must land on them exactly.
constexpr Pin kExperiment1{31.930228150000012, 0.32170412613217014,
                           0.34760632607291164, 150.05000000000001,
                           80, 159, 40};
constexpr Pin kExperiment2{34.085228150000013, 0.41933843471522581,
                           0.48157931187040892, 130.05000000000001,
                           80, 221, 40};
constexpr Pin kExperiment3{42.436478149999992, 0.53103311520920016,
                           0.60909669468947114, 85.049999999999997,
                           492, 741, 40};

TEST(ShardInvariance, Experiment1MatchesClassicEngine) {
  for (const int shards : {2, 4}) {
    expect_pinned(run_experiment(scaled(experiment1(), 40, shards)),
                  kExperiment1);
  }
}

TEST(ShardInvariance, Experiment2MatchesClassicEngine) {
  for (const int shards : {2, 4}) {
    expect_pinned(run_experiment(scaled(experiment2(), 40, shards)),
                  kExperiment2);
  }
}

TEST(ShardInvariance, Experiment3MatchesClassicEngine) {
  for (const int shards : {2, 4}) {
    expect_pinned(run_experiment(scaled(experiment3(), 40, shards)),
                  kExperiment3);
  }
}

TEST(ShardInvariance, CentralOracleIgnoresShardCount) {
  // The central oracle has no partitionable structure; sim_shards must be
  // a no-op there, keeping its pre-fault-model pin.
  ExperimentConfig config = scaled(experiment3(), 40, 4);
  config.placement = PlacementFamily::kCentralOracle;
  expect_pinned(run_experiment(config),
                {47.200228217807592, 0.53040994623655902, 0.40738605647678783,
                 63.0, 0, 146, 40});
}

TEST(ShardInvariance, PredictionTrafficIgnoresShardCount) {
  // Table reads are counted per owner (scheduler or agent) in plain
  // counters, so the totals cannot depend on which thread ran whom.
  const ExperimentResult one = run_experiment(scaled(experiment3(), 40, 1));
  const ExperimentResult four = run_experiment(scaled(experiment3(), 40, 4));
  EXPECT_EQ(four.sim_shards, 4u);
  EXPECT_EQ(one.cache.hits, four.cache.hits);
  EXPECT_EQ(one.cache.misses, four.cache.misses);
  EXPECT_EQ(one.table_reads, four.table_reads);
  // 7 applications × 5 platforms × 16 nodes, one engine evaluation each.
  EXPECT_EQ(one.cache.misses, 560u);
  EXPECT_GT(one.cache.hits, one.table_reads);
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
  EXPECT_EQ(a.message_retries, b.message_retries);
  EXPECT_EQ(a.sends_expired, b.sends_expired);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  EXPECT_EQ(a.agent_crashes, b.agent_crashes);
  EXPECT_EQ(a.agent_restarts, b.agent_restarts);
  EXPECT_EQ(a.tasks_resubmitted, b.tasks_resubmitted);
}

ExperimentConfig hammer_config(int shards) {
  // Everything at once on a generated 24-agent grid: message loss and
  // jitter, node churn, agent crash/restart cycles, fault tolerance.
  ScenarioSpec spec;
  spec.agent_count = 24;
  spec.requests_per_agent = 8;
  spec.arrival_interval = 0.0;  // auto per-agent rate
  ExperimentConfig config = scenario_experiment(spec);
  config.system.sim_shards = shards;
  config.system.fault.drop_prob = 0.04;
  config.system.fault.jitter_max = 0.3;
  config.system.fault.seed = 5;
  config.system.fault_tolerance.enabled = true;
  config.system.churn.enabled = true;
  config.system.churn.mtbf = 900.0;
  config.system.churn.mttr = 60.0;
  config.system.churn.horizon = 400.0;
  config.system.agent_churn.enabled = true;
  config.system.agent_churn.mtbf = 2500.0;
  config.system.agent_churn.mttr = 20.0;
  config.system.agent_churn.horizon = 400.0;
  return config;
}

TEST(ShardInvariance, FaultedScenarioFullResultEquality) {
  const ExperimentResult reference = run_experiment(hammer_config(1));
  EXPECT_EQ(reference.tasks_completed, reference.requests_submitted);
  for (const int shards : {2, 3}) {
    expect_identical(run_experiment(hammer_config(shards)), reference);
  }
}

// Four shards running the full fault stack.  Correctness here is
// repeatability: two identical runs.
TEST(ShardInvariance, HammerMultiShardRepeatable) {
  const ExperimentResult first = run_experiment(hammer_config(4));
  const ExperimentResult second = run_experiment(hammer_config(4));
  EXPECT_EQ(first.sim_shards, 4u);
  expect_identical(second, first);
}

}  // namespace
}  // namespace gridlb::core
