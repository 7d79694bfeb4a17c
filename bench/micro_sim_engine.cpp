// micro_sim_engine — event-loop and shard-scaling microbench (DESIGN.md
// §13).  The google-benchmark row measures the raw event throughput of the
// lineage-ordered engine.  `--json <path>` additionally writes the
// machine-readable scaling report compared by CI against the committed
// BENCH_sim_engine.json: a 96-agent fanout-3 campaign run once on a single
// shard and once sharded across min(4, hardware) threads, gated on the
// machine-normalized speedup_vs_single_shard ratio — raw seconds are
// reported but never gated on.  The report also
// re-checks shard-count invariance: both runs must produce identical
// results, not just similar ones.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>

#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "json_bench.hpp"
#include "sim/engine.hpp"

namespace {

using namespace gridlb;

// Self-perpetuating event chain: the per-event cost of schedule + pop +
// dispatch, the inner loop of every experiment.  The closure is two
// pointers, trivially copyable, so it lives inside the std::function and
// the row times the queue rather than a heap-held functor.  `pending`
// background events wait behind the chain, as the portal's up-front
// submissions wait in a real run, so every push and pop sifts through a
// heap that deep.
void run_event_chain(sim::Engine& engine, std::int64_t events,
                     std::int64_t pending = 0) {
  struct Tick {
    sim::Engine* engine;
    std::int64_t* remaining;
    void operator()() const {
      if (--*remaining > 0) engine->schedule_in(1.0, *this);
    }
  };
  std::int64_t remaining = events;
  std::int64_t unused = 0;
  for (std::int64_t i = 0; i < pending; ++i) {
    engine.schedule_at(1e12 + static_cast<double>(i), Tick{&engine, &unused});
  }
  engine.schedule_in(1.0, Tick{&engine, &remaining});
  engine.run_until(static_cast<double>(events));
}

void BM_EngineLineage(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    run_event_chain(engine, state.range(0), state.range(1));
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineLineage)
    ->ArgNames({"events", "pending"})
    ->Args({100000, 0})
    ->Args({100000, 600})
    ->UseRealTime();

// --- the --json scaling report -----------------------------------------

core::ExperimentConfig campaign_config(int shards) {
  core::ScenarioSpec spec;
  spec.agent_count = 96;
  spec.fanout = 3;
  spec.requests_per_agent = 25;
  spec.arrival_interval = 0.0;  // auto: the paper's per-agent rate
  core::ExperimentConfig config = core::scenario_experiment(spec);
  config.system.sim_shards = shards;
  return config;
}

double campaign_seconds(int shards, core::ExperimentResult* out) {
  using clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {  // best-of-2: the run is seconds long
    const auto start = clock::now();
    core::ExperimentResult result =
        core::run_experiment(campaign_config(shards));
    const double elapsed =
        std::chrono::duration<double>(clock::now() - start).count();
    if (rep == 0 || elapsed < best) best = elapsed;
    if (out != nullptr) *out = std::move(result);
  }
  return best;
}

void write_scaling_report(const std::string& path) {
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int multi_shards = std::min(4, hardware);

  const double lineage_ns =
      benchjson::measure_ns_per_op([](std::int64_t iters) {
        sim::Engine engine;
        run_event_chain(engine, iters);
      });
  const double pending_ns =
      benchjson::measure_ns_per_op([](std::int64_t iters) {
        sim::Engine engine;
        run_event_chain(engine, iters, 600);
      });

  core::ExperimentResult single;
  core::ExperimentResult multi;
  const double single_seconds = campaign_seconds(1, &single);
  const double multi_seconds = campaign_seconds(multi_shards, &multi);

  // The scaling ratio is only meaningful if the sharded run still computes
  // the same simulation (DESIGN.md §13's invariance contract).
  const bool identical = single.finished_at == multi.finished_at &&
                         single.tasks_completed == multi.tasks_completed &&
                         single.network_messages == multi.network_messages &&
                         single.sim_events == multi.sim_events &&
                         single.mean_hops == multi.mean_hops;
  GRIDLB_REQUIRE(identical,
                 "sharded campaign diverged from the single-shard reference");

  std::ofstream out(path);
  benchjson::JsonWriter json(out);
  json.begin_object();
  json.field("bench", "micro_sim_engine");
  json.field("schema_version", 1);
  json.begin_object("workload");
  json.field("agents", 96);
  json.field("fanout", 3);
  json.field("requests_per_agent", 25);
  json.field("tasks", static_cast<std::uint64_t>(single.tasks_completed));
  json.end_object();
  json.begin_object("event_loop");
  json.field("lineage_ns_per_event", lineage_ns);
  json.field("lineage_600_pending_ns_per_event", pending_ns);
  json.end_object();
  json.begin_object("campaign");
  json.field("hardware_threads", hardware);
  json.field("shards", multi_shards);
  json.field("single_shard_seconds", single_seconds);
  json.field("multi_shard_seconds", multi_seconds);
  json.field("sim_events", static_cast<std::uint64_t>(single.sim_events));
  json.end_object();
  json.field("speedup_vs_single_shard", single_seconds / multi_seconds);
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
  if (!json_path.empty()) write_scaling_report(json_path);
  return 0;
}
