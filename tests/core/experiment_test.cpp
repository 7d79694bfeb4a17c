// Integration tests over the full experiment harness.  These run scaled-
// down versions of the case study (fewer requests) so the suite stays
// fast; the full 600-request runs live in bench/table3_experiments.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace gridlb::core {
namespace {

ExperimentConfig scaled(ExperimentConfig config, int requests) {
  config.workload.count = requests;
  return config;
}

TEST(ExperimentPresets, MatchTable2) {
  const auto e1 = experiment1();
  EXPECT_EQ(e1.system.policy, sched::SchedulerPolicy::kFifo);
  EXPECT_FALSE(e1.system.discovery_enabled);
  const auto e2 = experiment2();
  EXPECT_EQ(e2.system.policy, sched::SchedulerPolicy::kGa);
  EXPECT_FALSE(e2.system.discovery_enabled);
  const auto e3 = experiment3();
  EXPECT_EQ(e3.system.policy, sched::SchedulerPolicy::kGa);
  EXPECT_TRUE(e3.system.discovery_enabled);
  for (const auto& config : {e1, e2, e3}) {
    EXPECT_EQ(config.system.resources.size(), 12u);
    EXPECT_EQ(config.workload.count, 600);
    EXPECT_DOUBLE_EQ(config.system.pull_period, 10.0);
  }
}

TEST(RunExperiment, CompletesEveryTask) {
  const auto result = run_experiment(scaled(experiment3(), 60));
  EXPECT_EQ(result.requests_submitted, 60u);
  EXPECT_EQ(result.tasks_completed, 60u);
  EXPECT_EQ(result.tasks_dropped, 0u);
  EXPECT_EQ(result.report.total.tasks, 60);
  EXPECT_GT(result.finished_at, 0.0);
  EXPECT_GT(result.sim_events, 0u);
}

TEST(RunExperiment, Deterministic) {
  const auto a = run_experiment(scaled(experiment3(), 40));
  const auto b = run_experiment(scaled(experiment3(), 40));
  EXPECT_DOUBLE_EQ(a.report.total.advance_time, b.report.total.advance_time);
  EXPECT_DOUBLE_EQ(a.report.total.utilisation, b.report.total.utilisation);
  EXPECT_DOUBLE_EQ(a.report.total.balance, b.report.total.balance);
  EXPECT_EQ(a.network_messages, b.network_messages);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(RunExperiment, FifoUsesSubsetSearchGaUsesDecodes) {
  const auto fifo = run_experiment(scaled(experiment1(), 24));
  EXPECT_GT(fifo.fifo_subsets, 0u);
  EXPECT_EQ(fifo.ga_decodes, 0u);
  // 2^16 − 1 subsets per placed task.
  EXPECT_EQ(fifo.fifo_subsets, 24u * 65535u);
  const auto ga = run_experiment(scaled(experiment2(), 24));
  EXPECT_GT(ga.ga_decodes, 0u);
  EXPECT_EQ(ga.fifo_subsets, 0u);
}

TEST(RunExperiment, AgentsGenerateDiscoveryTraffic) {
  const auto without = run_experiment(scaled(experiment2(), 30));
  const auto with = run_experiment(scaled(experiment3(), 30));
  EXPECT_GT(with.network_messages, without.network_messages);
  EXPECT_GE(with.mean_hops, 0.0);
  EXPECT_DOUBLE_EQ(without.mean_hops, 0.0);
}

TEST(RunExperiment, EvaluationCacheIsEffective) {
  const auto result = run_experiment(scaled(experiment3(), 30));
  // The GA hammers the same (app, hardware, nproc) keys; the cache must
  // absorb nearly everything ("many of the evaluations requested by the GA
  // are likely to be exactly the same as those required by previous
  // generations").
  EXPECT_GT(result.cache.hit_rate(), 0.95);
}

TEST(RunExperiment, AgentStatsCoverAllRequests) {
  const auto result = run_experiment(scaled(experiment3(), 50));
  std::uint64_t dispatched = 0;
  for (const auto& stats : result.agent_stats) {
    dispatched += stats.dispatched_local;
  }
  EXPECT_EQ(dispatched, 50u);
}

TEST(RunExperiment, StrictModeDropsAreAccounted) {
  ExperimentConfig config = scaled(experiment3(), 40);
  config.system.strict_failure = true;
  const auto result = run_experiment(config);
  EXPECT_EQ(result.tasks_completed + result.tasks_dropped, 40u);
}

TEST(RunExperiment, HorizonLimitAborts) {
  ExperimentConfig config = scaled(experiment1(), 40);
  config.horizon_limit = 3.0;  // impossible: the run needs far longer
  EXPECT_THROW(run_experiment(config), AssertionError);
}

TEST(RunExperiment, RejectsEmptyResources) {
  ExperimentConfig config;
  EXPECT_THROW(run_experiment(config), AssertionError);
}

/// `many` (one run_many result) is the run `alone` describes.
void expect_same_run(const ExperimentResult& many,
                     const ExperimentResult& alone, std::size_t i) {
  EXPECT_EQ(many.name, alone.name) << i;
  EXPECT_EQ(many.tasks_completed, alone.tasks_completed) << i;
  EXPECT_EQ(many.sim_events, alone.sim_events) << i;
  EXPECT_EQ(many.finished_at, alone.finished_at) << i;
  EXPECT_EQ(many.network_messages, alone.network_messages) << i;
  EXPECT_EQ(many.report.total.advance_time, alone.report.total.advance_time)
      << i;
  EXPECT_EQ(many.report.total.utilisation, alone.report.total.utilisation)
      << i;
  EXPECT_EQ(many.report.total.balance, alone.report.total.balance) << i;
  ASSERT_EQ(many.completions.size(), alone.completions.size()) << i;
  for (std::size_t c = 0; c < alone.completions.size(); ++c) {
    EXPECT_EQ(many.completions[c].task, alone.completions[c].task);
    EXPECT_EQ(many.completions[c].resource, alone.completions[c].resource);
    EXPECT_EQ(many.completions[c].start, alone.completions[c].start);
    EXPECT_EQ(many.completions[c].end, alone.completions[c].end);
  }
}

TEST(RunMany, MatchesRunExperimentInInputOrder) {
  ExperimentConfig crush = scaled(experiment3(), 120);
  crush.placement = PlacementFamily::kHashPlacement;
  const std::vector<ExperimentConfig> configs = {
      scaled(experiment1(), 120), scaled(experiment2(), 120),
      scaled(experiment3(), 120), crush};
  const std::vector<ExperimentResult> results = run_many(configs);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_same_run(results[i], run_experiment(configs[i]), i);
  }
}

/// The `"<key>":<integer>` value in a metrics JSON document.
std::uint64_t json_counter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  return at == std::string::npos
             ? 0
             : std::stoull(json.substr(at + needle.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Each worker installs the observed run's own session, so two observed
// runs side by side each write their own metrics, counting only their own
// events.
TEST(RunMany, ObservesEachRunOnItsOwnThread) {
  std::vector<ExperimentConfig> configs = {scaled(experiment1(), 40),
                                           scaled(experiment3(), 60)};
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].obs.trace = true;
    configs[i].obs.metrics_json_out = ::testing::TempDir() +
                                      "gridlb_run_many_metrics_" +
                                      std::to_string(i) + ".json";
  }
  const std::vector<ExperimentResult> results = run_many(configs);
  ASSERT_EQ(results.size(), configs.size());
  EXPECT_NE(results[0].sim_events, results[1].sim_events);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string metrics = read_file(configs[i].obs.metrics_json_out);
    EXPECT_EQ(json_counter(metrics, "sim.events"), results[i].sim_events)
        << i;
    EXPECT_EQ(json_counter(metrics, "obs.trace_events"),
              results[i].trace_events)
        << i;
    EXPECT_GT(results[i].trace_events, 0u) << i;
    std::remove(configs[i].obs.metrics_json_out.c_str());

    const ExperimentResult alone = run_experiment(configs[i]);
    std::remove(configs[i].obs.metrics_json_out.c_str());
    EXPECT_EQ(results[i].trace_events, alone.trace_events) << i;
    expect_same_run(results[i], alone, i);
  }
}

/// The lines `run` writes to stderr, sorted.
template <class Run>
std::vector<std::string> stderr_lines(Run run) {
  ::testing::internal::CaptureStderr();
  run();
  std::istringstream text(::testing::internal::GetCapturedStderr());
  std::vector<std::string> lines;
  for (std::string line; std::getline(text, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

// Agent churn makes every run warn about its crashes.  Concurrent workers
// write each warning in one call, so the lines stay whole and equal, as a
// multiset, those of the same runs one at a time.
TEST(RunMany, ConcurrentWarningsStayWholeLines) {
  std::vector<ExperimentConfig> configs;
  for (const double mtbf : {40.0, 60.0, 90.0}) {
    ExperimentConfig config = scaled(experiment3(), 60);
    config.system.agent_churn.enabled = true;
    config.system.agent_churn.mtbf = mtbf;
    config.system.agent_churn.mttr = 5.0;
    config.system.agent_churn.horizon = 200.0;
    configs.push_back(config);
  }
  const std::vector<std::string> together =
      stderr_lines([&configs] { (void)run_many(configs); });
  std::vector<std::string> alone;
  for (const ExperimentConfig& config : configs) {
    const std::vector<std::string> lines =
        stderr_lines([&config] { (void)run_experiment(config); });
    EXPECT_FALSE(lines.empty()) << config.system.agent_churn.mtbf;
    alone.insert(alone.end(), lines.begin(), lines.end());
  }
  std::sort(alone.begin(), alone.end());
  for (const std::string& line : together) {
    EXPECT_EQ(line.rfind("[gridlb WARN] ", 0), 0u) << line;
  }
  EXPECT_EQ(together, alone);
}

TEST(RunMany, RethrowsAFailingRun) {
  std::vector<ExperimentConfig> configs = {scaled(experiment1(), 24),
                                           scaled(experiment1(), 40)};
  configs[1].horizon_limit = 3.0;  // aborts, as in HorizonLimitAborts
  EXPECT_THROW((void)run_many(configs), AssertionError);
}

TEST(FormatTable3, RendersAllRows) {
  std::vector<ExperimentResult> results;
  results.push_back(run_experiment(scaled(experiment1(), 12)));
  results.push_back(run_experiment(scaled(experiment3(), 12)));
  const std::string table = format_table3(results);
  EXPECT_NE(table.find("S1"), std::string::npos);
  EXPECT_NE(table.find("S12"), std::string::npos);
  EXPECT_NE(table.find("Total"), std::string::npos);
  EXPECT_NE(table.find("experiment 2"), std::string::npos);
}

TEST(FormatTable3, RejectsEmptyAndMismatched) {
  EXPECT_THROW(format_table3({}), AssertionError);
}

// The headline qualitative reproduction, at reduced scale: the coupled
// system (experiment 3) must beat GA-only (experiment 2) on grid-level
// balance and utilisation, and GA-only must beat FIFO-only on local
// balance.
TEST(ShapeChecks, AgentsImproveGridBalance) {
  const auto e2 = run_experiment(scaled(experiment2(), 150));
  const auto e3 = run_experiment(scaled(experiment3(), 150));
  EXPECT_GT(e3.report.total.balance, e2.report.total.balance);
  EXPECT_GT(e3.report.total.utilisation, e2.report.total.utilisation);
  EXPECT_GT(e3.report.total.advance_time, e2.report.total.advance_time);
}

TEST(ShapeChecks, GaImprovesLocalBalanceOverFifo) {
  const auto e1 = run_experiment(scaled(experiment1(), 150));
  const auto e2 = run_experiment(scaled(experiment2(), 150));
  // "the load balancing of local grid resources [is] significantly
  // improved" — compare the mean per-resource balance level.
  const auto mean_local_balance = [](const ExperimentResult& result) {
    double sum = 0.0;
    for (const auto& row : result.report.resources) sum += row.balance;
    return sum / static_cast<double>(result.report.resources.size());
  };
  EXPECT_GT(mean_local_balance(e2), mean_local_balance(e1));
  EXPECT_GT(e2.report.total.advance_time, e1.report.total.advance_time);
}

}  // namespace
}  // namespace gridlb::core
