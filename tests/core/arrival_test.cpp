// Pluggable arrival processes and the open-loop harness (DESIGN.md §16).
//
// The timing processes must be deterministic per seed, must never perturb
// the per-request draws (entry agent, application, deadline), and the
// JSONL trace export must replay bit-for-bit.  The open-loop cutoff runs
// exactly the events before it, in strict and non-strict mode alike.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/workload.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::core {
namespace {

struct ArrivalFixture : ::testing::Test {
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();

  std::vector<RequestSpec> generate(ArrivalProcess process,
                                    std::uint64_t seed = 2003,
                                    int count = 400) {
    WorkloadConfig config;
    config.count = count;
    config.seed = seed;
    config.arrival = process;
    return generate_workload(config, catalogue, 12);
  }
};

TEST_F(ArrivalFixture, EveryProcessIsDeterministicPerSeed) {
  for (const auto process :
       {ArrivalProcess::kUniform, ArrivalProcess::kPoisson,
        ArrivalProcess::kOnOff, ArrivalProcess::kDiurnal}) {
    const auto a = generate(process);
    const auto b = generate(process);
    EXPECT_EQ(a, b) << arrival_process_name(process);
    // Only kPoisson consumes timing randomness — the square wave and the
    // sinusoid are deterministic functions of the request index — so only
    // there must a different seed move the submission times.
    if (process != ArrivalProcess::kPoisson) continue;
    const auto c = generate(process, 7);
    int moved = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].at != c[i].at) ++moved;
    }
    EXPECT_GT(moved, 100) << arrival_process_name(process);
  }
}

TEST_F(ArrivalFixture, TimingNeverPerturbsPerRequestDraws) {
  // Switching the arrival process changes submission times only: agent,
  // application and deadline sequences stay on the original stream.
  const auto reference = generate(ArrivalProcess::kUniform);
  for (const auto process : {ArrivalProcess::kPoisson, ArrivalProcess::kOnOff,
                             ArrivalProcess::kDiurnal}) {
    const auto workload = generate(process);
    ASSERT_EQ(workload.size(), reference.size());
    for (std::size_t i = 0; i < workload.size(); ++i) {
      EXPECT_EQ(workload[i].agent_index, reference[i].agent_index);
      EXPECT_EQ(workload[i].app_name, reference[i].app_name);
      EXPECT_EQ(workload[i].deadline_offset, reference[i].deadline_offset);
    }
  }
}

TEST_F(ArrivalFixture, ArrivalsAreNonDecreasingAndStartOnTime) {
  for (const auto process :
       {ArrivalProcess::kUniform, ArrivalProcess::kPoisson,
        ArrivalProcess::kOnOff, ArrivalProcess::kDiurnal}) {
    const auto workload = generate(process);
    EXPECT_GE(workload.front().at, 1.0) << arrival_process_name(process);
    for (std::size_t i = 1; i < workload.size(); ++i) {
      EXPECT_GE(workload[i].at, workload[i - 1].at)
          << arrival_process_name(process) << " index " << i;
    }
  }
}

TEST_F(ArrivalFixture, PoissonMeanInterarrivalMatchesInterval) {
  WorkloadConfig config;
  config.count = 4000;
  config.interval = 2.0;
  config.arrival = ArrivalProcess::kPoisson;
  const auto workload = generate_workload(config, catalogue, 12);
  double sum = 0.0;
  for (std::size_t i = 1; i < workload.size(); ++i) {
    sum += workload[i].at - workload[i - 1].at;
  }
  const double mean = sum / static_cast<double>(workload.size() - 1);
  // Standard error of the mean is interval/√n ≈ 0.032 s; ±0.2 s is > 6σ.
  EXPECT_NEAR(mean, 2.0, 0.2);
}

TEST_F(ArrivalFixture, OnOffKeepsSilentPhasesSilent) {
  WorkloadConfig config;
  config.count = 400;
  config.arrival = ArrivalProcess::kOnOff;
  config.burst_on = 30.0;
  config.burst_off = 90.0;
  const auto workload = generate_workload(config, catalogue, 12);
  for (const auto& spec : workload) {
    const double phase = std::fmod(spec.at - config.start, 120.0);
    EXPECT_LE(phase, 30.0 + 1e-9) << "arrival inside an OFF phase";
  }
}

TEST_F(ArrivalFixture, TraceRoundTripsBitForBit) {
  WorkloadConfig config;
  config.count = 300;
  config.arrival = ArrivalProcess::kPoisson;
  const auto original = generate_workload(config, catalogue, 12);

  // String round trip.
  const std::string jsonl = workload_to_jsonl(original);
  EXPECT_EQ(parse_workload_jsonl(jsonl), original);

  // File round trip through the kTrace generator.  deadline_scale must
  // NOT be re-applied to the already-final trace offsets.
  const std::string path = "arrival_test_trace.tmp";
  { std::ofstream(path) << jsonl; }
  WorkloadConfig replay;
  replay.arrival = ArrivalProcess::kTrace;
  replay.trace_path = path;
  replay.deadline_scale = 0.5;
  EXPECT_EQ(generate_workload(replay, catalogue, 12), original);
  std::remove(path.c_str());
}

TEST_F(ArrivalFixture, ParserRejectsMalformedAndOutOfOrderLines) {
  EXPECT_THROW(parse_workload_jsonl("{\"at\":1.0,\"agent\":0}"),
               AssertionError);
  const std::string out_of_order =
      "{\"at\":5.0,\"agent\":0,\"app\":\"cpi\",\"deadline_offset\":10}\n"
      "{\"at\":4.0,\"agent\":0,\"app\":\"cpi\",\"deadline_offset\":10}\n";
  EXPECT_THROW(parse_workload_jsonl(out_of_order), AssertionError);
}

TEST_F(ArrivalFixture, ParserRejectsNonFiniteAndOutOfRangeNumbers) {
  const auto line = [](const std::string& at, const std::string& agent,
                       const std::string& offset) {
    return "{\"at\":" + at + ",\"agent\":" + agent +
           ",\"app\":\"cpi\",\"deadline_offset\":" + offset + "}\n";
  };
  const auto rejects = [](const std::string& text, const std::string& what) {
    try {
      (void)parse_workload_jsonl(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const AssertionError& error) {
      EXPECT_NE(require_message(error).find(what), std::string::npos)
          << require_message(error);
    }
  };
  EXPECT_NO_THROW((void)parse_workload_jsonl(line("1", "2147483647", "0")));
  rejects(line("1e400", "0", "10"), "line 1 has a non-finite \"at\"");
  rejects(line("nan", "0", "10"), "non-finite \"at\"");
  rejects(line("1", "0", "nan"), "non-finite \"deadline_offset\"");
  rejects(line("1", "0", "-inf"), "non-finite \"deadline_offset\"");
  rejects(line("1", "0", "-5"), "negative \"deadline_offset\"");
  rejects(line("1", "1e10", "10"), "\"agent\" that is not an index");
  rejects(line("1", "2147483648", "10"), "\"agent\" that is not an index");
  rejects(line("1", "-1", "10"), "\"agent\" that is not an index");
  rejects(line("1", "1.5", "10"), "\"agent\" that is not an index");
  rejects(line("1", "0", "10") + line("2", "nan", "10"),
          "line 2 has a non-finite \"agent\"");
}

TEST_F(ArrivalFixture, ValidationMessagesAreActionable) {
  WorkloadConfig config;
  config.interval = 0.0;
  try {
    validate_workload(config);
    FAIL() << "interval 0 must be rejected";
  } catch (const AssertionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--arrival-interval"), std::string::npos) << what;
    EXPECT_NE(what.find("uniform"), std::string::npos) << what;
  }
  config = WorkloadConfig{};
  config.arrival = ArrivalProcess::kTrace;
  try {
    validate_workload(config);
    FAIL() << "trace without a file must be rejected";
  } catch (const AssertionError& error) {
    EXPECT_NE(std::string(error.what()).find("--arrival-trace"),
              std::string::npos);
  }
  config = WorkloadConfig{};
  config.arrival = ArrivalProcess::kDiurnal;
  config.diurnal_amplitude = 1.0;
  EXPECT_THROW(validate_workload(config), AssertionError);
  EXPECT_THROW((void)arrival_process_from_name("bursty"), AssertionError);
}

// --- open-loop harness ------------------------------------------------

ExperimentConfig open_loop_config(bool strict) {
  ScenarioSpec spec;
  spec.agent_count = 12;
  spec.requests_per_agent = 30;
  spec.arrival_interval = 0.0;  // auto per-agent rate
  ExperimentConfig config = scenario_experiment(spec);
  config.workload.arrival = ArrivalProcess::kOnOff;
  config.duration = 180.0;
  config.system.strict_failure = strict;
  return config;
}

TEST(OpenLoop, CutoffTruncatesTheWorkload) {
  // Strict mode too: its drops are notified through events deferred by
  // one network latency, so they settle inside the window like completions.
  for (const bool strict : {false, true}) {
    const ExperimentResult result = run_experiment(open_loop_config(strict));
    // The 360-request batch outlasts the 180 s window: some of the tail is
    // never submitted, and the standing backlog is accounted, not lost.
    EXPECT_LT(result.requests_submitted, 360u);
    EXPECT_GT(result.requests_submitted, 0u);
    EXPECT_EQ(result.tasks_unfinished, result.requests_submitted -
                                           result.tasks_completed -
                                           result.tasks_dropped);
    EXPECT_GE(result.shed_rate, 0.0);
    EXPECT_LE(result.shed_rate, 1.0);
    EXPECT_LE(result.finished_at, 180.0);
    // Percentiles come from real completions, so they are finite.
    EXPECT_TRUE(std::isfinite(result.latency_p50));
    EXPECT_TRUE(std::isfinite(result.latency_p99));
    EXPECT_GE(result.latency_p99, result.latency_p50);
  }
}

TEST(OpenLoop, ZeroCompletionWindowHasNoNaN) {
  // A cutoff so early nothing completes: every statistic must still be
  // finite and the report printable.
  ScenarioSpec spec;
  spec.agent_count = 12;
  spec.requests_per_agent = 4;
  ExperimentConfig config = scenario_experiment(spec);
  config.duration = 1.5;  // first submission lands at t=1
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.tasks_completed, 0u);
  EXPECT_TRUE(std::isfinite(result.shed_rate));
  EXPECT_TRUE(std::isfinite(result.latency_p50));
  EXPECT_TRUE(std::isfinite(result.latency_p99));
  EXPECT_TRUE(std::isfinite(result.report.total.utilisation));
  EXPECT_TRUE(std::isfinite(result.report.total.balance));
  EXPECT_TRUE(std::isfinite(result.report.total.advance_time));
  const std::string text = metrics::format_report(result.report);
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
  EXPECT_NE(text.find("no completions"), std::string::npos) << text;
}

}  // namespace
}  // namespace gridlb::core
