// micro_obs_overhead — observability overhead gate (DESIGN.md §14).  The
// google-benchmark rows measure the per-site cost of an instrumentation
// call with observability off (one thread-local load + branch) and fully
// on.
// `--json <path>` writes the machine-readable overhead report compared by
// CI against the committed BENCH_obs_overhead.json: a 64-agent campaign
// run bare and with tracing, metrics, and the continuous sampler all
// enabled (no output files — the cost under test is the recording, not
// the final serialization).  The two run in back-to-back pairs, each pair
// alternating which goes first, so a swing in host load lands on both
// sides of a ratio; the report carries the median of the per-pair
// ratios.  CI gates on that plain_vs_observed ratio with an absolute
// floor: observed must stay within a few percent of plain.  Both runs
// must also produce identical results — the overhead number is
// meaningless if observation perturbed the simulation.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "json_bench.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace {

using namespace gridlb;

void BM_EmitDisabled(benchmark::State& state) {
  // No session installed: the disabled fast path.
  std::uint64_t task = 0;
  for (auto _ : state) {
    obs::emit({.at = 1.0,
               .kind = obs::EventKind::kTaskCompleted,
               .task = ++task,
               .resource = 1});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmitDisabled);

void BM_EmitEnabled(benchmark::State& state) {
  obs::ObsConfig config;
  config.trace = true;
  obs::Session session(config);
  std::uint64_t task = 0;
  for (auto _ : state) {
    obs::emit({.at = 1.0,
               .kind = obs::EventKind::kTaskCompleted,
               .task = ++task,
               .resource = 1});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmitEnabled);

// --- the --json overhead report ------------------------------------------

core::ExperimentConfig campaign_config(bool observed) {
  core::ScenarioSpec spec;
  spec.agent_count = 64;
  spec.fanout = 3;
  spec.requests_per_agent = 25;
  spec.arrival_interval = 0.0;  // auto: the paper's per-agent rate
  core::ExperimentConfig config = core::scenario_experiment(spec);
  if (observed) {
    config.obs.trace = true;
    config.obs.metrics = true;
    config.obs.metrics_interval = 30.0;
  }
  return config;
}

/// Wall seconds of one campaign run; `out` receives its result.
double campaign_seconds(bool observed, core::ExperimentResult& out) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  core::ExperimentResult result =
      core::run_experiment(campaign_config(observed));
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start).count();
  out = std::move(result);
  return elapsed;
}

void write_overhead_report(const std::string& path) {
  const double emit_off_ns =
      benchjson::measure_ns_per_op([](std::int64_t iters) {
        std::uint64_t task = 0;
        for (std::int64_t i = 0; i < iters; ++i) {
          obs::emit({.at = 1.0,
                     .kind = obs::EventKind::kTaskCompleted,
                     .task = ++task,
                     .resource = 1});
        }
      });
  const double emit_on_ns =
      benchjson::measure_ns_per_op([](std::int64_t iters) {
        obs::ObsConfig config;
        config.trace = true;
        obs::Session session(config);
        std::uint64_t task = 0;
        for (std::int64_t i = 0; i < iters; ++i) {
          obs::emit({.at = 1.0,
                     .kind = obs::EventKind::kTaskCompleted,
                     .task = ++task,
                     .resource = 1});
        }
      });

  constexpr int kPairs = 5;
  core::ExperimentResult plain;
  core::ExperimentResult observed;
  std::vector<double> plain_times;
  std::vector<double> observed_times;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    double plain_s = 0.0;
    double observed_s = 0.0;
    if (pair % 2 == 0) {
      plain_s = campaign_seconds(false, plain);
      observed_s = campaign_seconds(true, observed);
    } else {
      observed_s = campaign_seconds(true, observed);
      plain_s = campaign_seconds(false, plain);
    }
    plain_times.push_back(plain_s);
    observed_times.push_back(observed_s);
    ratios.push_back(plain_s / observed_s);
  }
  const double plain_seconds = metrics::percentile(plain_times, 50.0);
  const double observed_seconds = metrics::percentile(observed_times, 50.0);
  const double plain_vs_observed = metrics::percentile(ratios, 50.0);

  // The overhead ratio only describes observation if the observed run
  // computed the identical simulation (DESIGN.md §14's neutrality
  // contract; also pinned by tests/obs/determinism_test.cpp).
  const bool identical = plain.finished_at == observed.finished_at &&
                         plain.tasks_completed == observed.tasks_completed &&
                         plain.network_messages == observed.network_messages &&
                         plain.sim_events == observed.sim_events &&
                         plain.mean_hops == observed.mean_hops;
  GRIDLB_REQUIRE(identical,
                 "observed campaign diverged from the unobserved reference");

  std::ofstream out(path);
  benchjson::JsonWriter json(out);
  json.begin_object();
  json.field("bench", "micro_obs_overhead");
  json.field("schema_version", 1);
  json.begin_object("workload");
  json.field("agents", 64);
  json.field("fanout", 3);
  json.field("requests_per_agent", 25);
  json.field("tasks", static_cast<std::uint64_t>(plain.tasks_completed));
  json.end_object();
  json.begin_object("emit");
  json.field("disabled_ns_per_event", emit_off_ns);
  json.field("enabled_ns_per_event", emit_on_ns);
  json.end_object();
  json.begin_object("campaign");
  json.field("plain_seconds", plain_seconds);
  json.field("observed_seconds", observed_seconds);
  json.field("trace_events",
             static_cast<std::uint64_t>(observed.trace_events));
  json.field("sim_events", static_cast<std::uint64_t>(plain.sim_events));
  json.end_object();
  // Median per-pair ratio; > 1 means observation was free within noise.
  // CI gates it with an absolute floor (plain_vs_observed@0.95 ⇔ < 5%
  // overhead).
  json.field("plain_vs_observed", plain_vs_observed);
  json.field("results_identical", identical ? 1 : 0);
  json.field("peak_rss_bytes", benchjson::peak_rss_bytes());
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      gridlb::benchjson::extract_json_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) write_overhead_report(json_path);
  return 0;
}
