// micro_sim_engine — event-loop microbench (DESIGN.md §13).  The
// google-benchmark rows measure the per-event cost of schedule + pop +
// dispatch on one queue, bare and behind 600 pending events.  Raw ns are
// reported, never gated on.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "sim/engine.hpp"

namespace {

using namespace gridlb;

// Self-perpetuating event chain: the per-event cost of schedule + pop +
// dispatch, the inner loop of every experiment.  The closure is two
// pointers, trivially copyable, so it lives inside the std::function and
// the row times the queue rather than a heap-held functor; every closure
// of a task's path is that small too, its larger state parked in a
// sim::Slab.  `pending`
// background events wait behind the chain, as the portal's up-front
// submissions wait in a real run, so every push and pop sifts through a
// heap that deep.
void run_event_chain(sim::Engine& engine, std::int64_t events,
                     std::int64_t pending) {
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

}  // namespace

BENCHMARK_MAIN();
