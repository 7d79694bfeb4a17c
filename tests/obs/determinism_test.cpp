// Observation neutrality: enabling tracing and metrics must be bit-for-bit
// invisible to the experiment — the overhead contract of DESIGN.md §9.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "core/experiment.hpp"
#include "obs/obs.hpp"

namespace gridlb::core {
namespace {

ExperimentConfig small_experiment3() {
  ExperimentConfig config = experiment3();
  config.workload.count = 40;
  return config;
}

void expect_identical(const ExperimentResult& plain,
                      const ExperimentResult& observed) {
  ASSERT_EQ(plain.completions.size(), observed.completions.size());
  for (std::size_t i = 0; i < plain.completions.size(); ++i) {
    const sched::CompletionRecord& a = plain.completions[i];
    const sched::CompletionRecord& b = observed.completions[i];
    EXPECT_EQ(a.task, b.task);
    EXPECT_EQ(a.resource, b.resource);
    EXPECT_EQ(a.mask, b.mask);
    EXPECT_DOUBLE_EQ(a.start, b.start);
    EXPECT_DOUBLE_EQ(a.end, b.end);
  }
  EXPECT_DOUBLE_EQ(plain.report.total.advance_time,
                   observed.report.total.advance_time);
  EXPECT_DOUBLE_EQ(plain.report.total.utilisation,
                   observed.report.total.utilisation);
  EXPECT_DOUBLE_EQ(plain.report.total.balance, observed.report.total.balance);
  EXPECT_EQ(plain.sim_events, observed.sim_events);
  EXPECT_EQ(plain.network_messages, observed.network_messages);
  EXPECT_EQ(plain.ga_decodes, observed.ga_decodes);
  EXPECT_DOUBLE_EQ(plain.finished_at, observed.finished_at);
}

TEST(ObservationNeutrality, TracingDoesNotChangeSchedulingResults) {
  const ExperimentResult plain = run_experiment(small_experiment3());

  ExperimentConfig traced = small_experiment3();
  traced.obs.trace = true;
  traced.obs.metrics = true;
  const ExperimentResult observed = run_experiment(traced);

  expect_identical(plain, observed);
  // And the observed run actually observed something.
  EXPECT_GT(observed.trace_events, 0u);
  EXPECT_EQ(plain.trace_events, 0u);
}

TEST(ObservationNeutrality, SecondTracedRunMatchesFirst) {
  ExperimentConfig traced = small_experiment3();
  traced.obs.trace = true;
  const ExperimentResult a = run_experiment(traced);
  const ExperimentResult b = run_experiment(traced);
  expect_identical(a, b);
}

TEST(ObservationNeutrality, FifoExperimentIsAlsoNeutral) {
  ExperimentConfig config = experiment1();
  config.workload.count = 24;
  const ExperimentResult plain = run_experiment(config);
  config.obs.trace = true;
  config.obs.metrics = true;
  const ExperimentResult observed = run_experiment(config);
  expect_identical(plain, observed);
}

// --- Continuous sampler (DESIGN.md §14) ---------------------------------
//
// The sampler schedules real engine events, so neutrality is a stronger
// claim than for passive tracing: the ticks must neither perturb the
// schedule (lineage order, exact stop) nor leak into the published event
// count.  Pinned here for every experiment shape at shard counts 1 and 4.

/// Tracing + metrics + a fast sampling cadence, no output files.
void enable_sampling(ExperimentConfig& config) {
  config.obs.trace = true;
  config.obs.metrics = true;
  config.obs.metrics_interval = 25.0;
}

void expect_sampler_neutral(ExperimentConfig config) {
  config.system.sim_shards = 1;
  const ExperimentResult plain = run_experiment(config);

  ExperimentConfig sampled1 = config;
  enable_sampling(sampled1);
  const ExperimentResult observed1 = run_experiment(sampled1);
  expect_identical(plain, observed1);

  ExperimentConfig sampled4 = config;
  sampled4.system.sim_shards = 4;
  enable_sampling(sampled4);
  const ExperimentResult observed4 = run_experiment(sampled4);
  expect_identical(plain, observed4);
}

TEST(SamplerNeutrality, Experiment1AtShards1And4) {
  ExperimentConfig config = experiment1();
  config.workload.count = 24;
  expect_sampler_neutral(config);
}

TEST(SamplerNeutrality, Experiment2AtShards1And4) {
  ExperimentConfig config = experiment2();
  config.workload.count = 24;
  expect_sampler_neutral(config);
}

TEST(SamplerNeutrality, Experiment3AtShards1And4) {
  expect_sampler_neutral(small_experiment3());
}

TEST(SamplerNeutrality, CentralOracleIsNeutral) {
  ExperimentConfig config = experiment2();
  config.name = "central";
  config.placement = PlacementFamily::kCentralOracle;
  config.workload.count = 24;
  const ExperimentResult plain = run_experiment(config);
  ExperimentConfig sampled = config;
  enable_sampling(sampled);
  const ExperimentResult observed = run_experiment(sampled);
  expect_identical(plain, observed);
  EXPECT_GT(observed.trace_events, 0u);
}

/// Lines of the experiment's JSONL event dump that carry a shard stamp
/// (the exporter writes "shard" only for a nonzero TraceEvent.shard).
int stamped_event_lines(int shards) {
  ExperimentConfig config = small_experiment3();
  config.system.sim_shards = shards;
  config.obs.events_out = ::testing::TempDir() + "gridlb_stamps_" +
                          std::to_string(shards) + ".jsonl";
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.trace_events, 0u);
  std::ifstream in(config.obs.events_out);
  int lines = 0;
  int stamped = 0;
  for (std::string line; std::getline(in, line);) {
    ++lines;
    if (line.find("\"shard\"") != std::string::npos) ++stamped;
  }
  EXPECT_GT(lines, 0);
  return stamped;
}

TEST(TraceShardStamps, OneShardRunStampsShardZero) {
  // A one-shard run traces like an unsharded one, so its Chrome and JSONL
  // exports keep the unsharded layout.
  EXPECT_EQ(stamped_event_lines(1), 0);
  // The check is not vacuous: a partitioned run stamps its events.
  EXPECT_GT(stamped_event_lines(4), 0);
}

TEST(SamplerNeutrality, SamplerActuallySampled) {
  // Guard against the suite passing vacuously: the sampled run must have
  // taken periodic samples (run length >> 25 s cadence).
  ExperimentConfig config = small_experiment3();
  enable_sampling(config);
  config.system.sim_shards = 4;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.finished_at, 50.0);
  EXPECT_GT(result.trace_events, 0u);
}

}  // namespace
}  // namespace gridlb::core
