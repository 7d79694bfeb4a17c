// Observation neutrality: enabling tracing and metrics must be bit-for-bit
// invisible to the experiment — the overhead contract of DESIGN.md §9.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
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
// schedule ((at, seq) order, exact stop) nor leak into the published event
// count.  Pinned here for every experiment shape.

/// Tracing + metrics + a fast sampling cadence, no output files.
void enable_sampling(ExperimentConfig& config) {
  config.obs.trace = true;
  config.obs.metrics = true;
  config.obs.metrics_interval = 25.0;
}

void expect_sampler_neutral(const ExperimentConfig& config) {
  const ExperimentResult plain = run_experiment(config);
  ExperimentConfig sampled = config;
  enable_sampling(sampled);
  expect_identical(plain, run_experiment(sampled));
}

TEST(SamplerNeutrality, Experiment1IsNeutral) {
  ExperimentConfig config = experiment1();
  config.workload.count = 24;
  expect_sampler_neutral(config);
}

TEST(SamplerNeutrality, Experiment2IsNeutral) {
  ExperimentConfig config = experiment2();
  config.workload.count = 24;
  expect_sampler_neutral(config);
}

TEST(SamplerNeutrality, Experiment3IsNeutral) {
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

/// The experiment's JSONL event dump, written to `name` in the temp dir.
std::string event_dump(const std::string& name) {
  ExperimentConfig config = small_experiment3();
  config.obs.events_out = ::testing::TempDir() + name;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.trace_events, 0u);
  std::ifstream in(config.obs.events_out);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(TraceExports, EventDumpIsRepeatable) {
  // One event order per run: a second run records the same events in the
  // same order, so the dump is byte-identical.
  const std::string first = event_dump("gridlb_events_a.jsonl");
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(event_dump("gridlb_events_b.jsonl"), first);
}

TEST(SamplerNeutrality, SamplerActuallySampled) {
  // Guard against the suite passing vacuously: the sampled run must have
  // taken periodic samples (run length >> 25 s cadence).
  ExperimentConfig config = small_experiment3();
  enable_sampling(config);
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.finished_at, 50.0);
  EXPECT_GT(result.trace_events, 0u);
}

}  // namespace
}  // namespace gridlb::core
