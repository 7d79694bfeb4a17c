// micro_sim_engine — event-loop microbench (DESIGN.md §13).  The
// google-benchmark rows measure the per-event cost of schedule + pop +
// dispatch on one queue, bare and behind 600 pending events.  `--json
// <path>` additionally writes the same two figures as a machine-readable
// report.  Raw ns are reported, never gated on.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <string>

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

void BM_EventChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    run_event_chain(engine, state.range(0), state.range(1));
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventChain)
    ->ArgNames({"events", "pending"})
    ->Args({100000, 0})
    ->Args({100000, 600})
    ->UseRealTime();

// --- the --json report ----------------------------------------------------

void write_report(const std::string& path) {
  const double chain_ns =
      benchjson::measure_ns_per_op([](std::int64_t iters) {
        sim::Engine engine;
        run_event_chain(engine, iters);
      });
  const double pending_ns =
      benchjson::measure_ns_per_op([](std::int64_t iters) {
        sim::Engine engine;
        run_event_chain(engine, iters, 600);
      });

  std::ofstream out(path);
  benchjson::JsonWriter json(out);
  json.begin_object();
  json.field("bench", "micro_sim_engine");
  json.field("schema_version", 2);
  json.begin_object("event_loop");
  json.field("ns_per_event", chain_ns);
  json.field("behind_600_pending_ns_per_event", pending_ns);
  json.end_object();
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
  if (!json_path.empty()) write_report(json_path);
  return 0;
}
