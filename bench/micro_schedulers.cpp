// Microbenchmarks (google-benchmark) for the scheduling kernels:
//   * PACE evaluation — raw engine vs a prediction-table read,
//   * the GA's steady-state evaluation (DESIGN.md §11: prepared context +
//     metrics-only evaluate) at five queue depths,
//   * whole GA optimize() calls at the paper's settings, and the breeding
//     operators (mutation, crossover) on their own,
//   * one FIFO placement (the per-width argmin over all 2^16−1 subsets)
//     on an idle resource and on a loaded one with two nodes down,
//   * agent matchmaking (eq. 10),
//   * XML round-trip of the agent documents, and the receiver's one-pass
//     read of one delivered request.
// These back the performance discussion in §2.2 of the paper with
// measured numbers on this machine.  They diagnose; the end-to-end
// numbers of perfbench/ are the claims.

#include <benchmark/benchmark.h>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

const pace::ApplicationCatalogue& catalogue() {
  static const pace::ApplicationCatalogue paper = pace::paper_catalogue();
  return paper;
}

/// The 16-node SGIOrigin2000 every kernel below runs on, and its table.
const pace::ResourceModel kSgi =
    pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);

const pace::PredictionTable& sgi_table() {
  static const pace::PredictionTable table(catalogue(), {kSgi}, 16);
  return table;
}

std::vector<sched::Task> make_tasks(int count) {
  const pace::ApplicationCatalogue& apps = catalogue();
  Rng rng(5);
  std::vector<sched::Task> tasks;
  for (int i = 0; i < count; ++i) {
    sched::Task task;
    task.id = TaskId(static_cast<std::uint64_t>(i));
    task.app = apps.all()[static_cast<std::size_t>(
        rng.next_below(apps.size()))];
    const auto domain = task.app->deadline_domain();
    task.deadline = rng.uniform(domain.lo, domain.hi);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

void BM_PaceEvaluateRaw(benchmark::State& state) {
  const auto& model = *catalogue().find("sweep3d");
  int nproc = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pace::EvaluationEngine::evaluate(model, kSgi, nproc));
    nproc = nproc % 16 + 1;
  }
}
BENCHMARK(BM_PaceEvaluateRaw);

// A lookup as the agents make it: find the row, then index it.
void BM_PaceTableRead(benchmark::State& state) {
  const auto& model = *catalogue().find("sweep3d");
  int nproc = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sgi_table().row(model, kSgi)[static_cast<std::size_t>(nproc - 1)]);
    nproc = nproc % 16 + 1;
  }
}
BENCHMARK(BM_PaceTableRead);

// The GA's steady-state evaluation (DESIGN.md §11): prediction rows and
// node availability hoisted into a prepared context, metrics-only decode
// into a reusable scratch — no allocations.
void BM_ScheduleEvaluate(benchmark::State& state) {
  sched::ScheduleBuilder builder(sgi_table(), kSgi, 16);
  const auto tasks = make_tasks(static_cast<int>(state.range(0)));
  Rng rng(9);
  const auto solution =
      sched::SolutionString::random(static_cast<int>(tasks.size()), 16, rng);
  const std::vector<SimTime> idle(16, 0.0);
  sched::DecodeContext context;
  sched::DecodeScratch scratch;
  builder.prepare(context, tasks, idle, 0.0, sched::full_mask(16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.evaluate(context, solution, scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_ScheduleEvaluate)->Arg(5)->Arg(20)->Arg(50)->Arg(200)->Arg(600);

// Whole optimize() calls at the paper's settings (population 50) over a
// 20-task queue: evaluation plus selection, crossover and mutation, for one
// generation and for ten.  items_per_second is evaluations/s.
void BM_GaOptimize(benchmark::State& state) {
  sched::ScheduleBuilder builder(sgi_table(), kSgi, 16);
  const auto tasks = make_tasks(20);
  sched::GaConfig config;
  config.generations = static_cast<int>(state.range(0));
  sched::GaScheduler scheduler(builder, config, 11);
  const std::vector<SimTime> idle(16, 0.0);
  std::uint64_t decodes = 0;
  for (auto _ : state) {
    const auto result = scheduler.optimize(tasks, idle, 0.0);
    decodes += result.decodes;
    benchmark::DoNotOptimize(result.best_cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decodes));
}
BENCHMARK(BM_GaOptimize)->Arg(1)->Arg(10)->Unit(benchmark::kMicrosecond);

constexpr int kPopulation = 50;

std::vector<sched::SolutionString> make_population(int tasks) {
  Rng rng(7);
  std::vector<sched::SolutionString> population;
  for (int k = 0; k < kPopulation; ++k) {
    population.push_back(sched::SolutionString::random(tasks, 16, rng));
  }
  return population;
}

// The breeding operators alone, at the queue lengths the local schedulers
// see (3 tasks: experiment 3's mean; 40: a backed-up queue) on 16 nodes.
// items_per_second is children bred per second.
void BM_Mutate(benchmark::State& state) {
  auto population = make_population(static_cast<int>(state.range(0)));
  const sched::GaConfig config;
  Rng rng(23);
  for (auto _ : state) {
    for (auto& solution : population) {
      solution.mutate(config.order_swap_rate, config.bit_flip_rate, rng);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kPopulation);
}
BENCHMARK(BM_Mutate)->Arg(3)->Arg(40);

void BM_Crossover(benchmark::State& state) {
  const auto population = make_population(static_cast<int>(state.range(0)));
  sched::SolutionString child;
  Rng rng(29);
  for (auto _ : state) {
    for (int k = 0; k < kPopulation; ++k) {
      population[static_cast<std::size_t>(k)].crossover(
          population[static_cast<std::size_t>((k + 1) % kPopulation)], rng,
          child);
      benchmark::DoNotOptimize(child.order().data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kPopulation);
}
BENCHMARK(BM_Crossover)->Arg(3)->Arg(40);

void BM_FifoPlacement(benchmark::State& state) {
  sched::FifoScheduler fifo(sgi_table(), kSgi, 16);
  const auto tasks = make_tasks(1);
  std::vector<SimTime> free(16, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fifo.place(tasks[0], free, 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoPlacement);

// The idle machine is the easiest input: every free time is equal.  Here
// the free times are seeded-random (some in the past, clamped to now) and
// nodes 3 and 11 are down, so the sort and the eligibility scan both work.
void BM_FifoPlacementLoaded(benchmark::State& state) {
  sched::FifoScheduler fifo(sgi_table(), kSgi, 16);
  const auto tasks = make_tasks(8);
  Rng rng(13);
  std::vector<SimTime> free(16);
  for (auto& f : free) f = rng.uniform(0.0, 200.0);
  const sched::NodeMask available =
      sched::full_mask(16) & ~((sched::NodeMask{1} << 3) |
                               (sched::NodeMask{1} << 11));
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fifo.place(tasks[next], free, 50.0, available));
    next = (next + 1) % tasks.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoPlacementLoaded);

void BM_AgentMatchmaking(benchmark::State& state) {
  // eq. 10: one prediction row, minimum over its n entries.
  sim::Engine engine;
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  agents::SystemConfig config;
  config.resources = {{"S1", pace::HardwareType::kSgiOrigin2000, 16, -1}};
  agents::AgentSystem system(engine, catalogue, std::move(config), nullptr);
  const agents::Agent& agent = system.agent(0);
  const agents::ServiceInfo info = agent.service_snapshot();
  agents::Request request;
  request.app_name = "jacobi";
  request.environment = "test";
  request.deadline = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.estimate_completion(info, request));
  }
}
BENCHMARK(BM_AgentMatchmaking);

void BM_ServiceInfoXmlRoundTrip(benchmark::State& state) {
  agents::ServiceInfo info;
  info.agent_address = "gem.dcs.warwick.ac.uk";
  info.agent_port = 1000;
  info.local_address = "gem.dcs.warwick.ac.uk";
  info.local_port = 10000;
  info.hardware_type = "SunUltra10";
  info.nproc = 16;
  info.environments = {"mpi", "pvm", "test"};
  info.freetime = 4312.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agents::service_info_from_xml(to_xml(info)));
  }
}
BENCHMARK(BM_ServiceInfoXmlRoundTrip);

void BM_RequestXmlRoundTrip(benchmark::State& state) {
  agents::Request request;
  request.task = TaskId(42);
  request.app_name = "sweep3d";
  request.binary_file = "/gridlb/binary/sweep3d";
  request.input_file = "/gridlb/binary/sweep3d.input";
  request.model_name = "/gridlb/model/sweep3d";
  request.deadline = 437.25;
  request.email = "user@gridlb.sim";
  request.visited = {AgentId(3), AgentId(1)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(agents::request_from_xml(to_xml(request)));
  }
}
BENCHMARK(BM_RequestXmlRoundTrip);

// The receiver's side of one delivered request: the root start tag, then
// the typed reader through the body, in one pass.
void BM_DeliverRequest(benchmark::State& state) {
  agents::Request request;
  request.task = TaskId(42);
  request.app_name = "sweep3d";
  request.binary_file = "/gridlb/binary/sweep3d";
  request.input_file = "/gridlb/binary/sweep3d.input";
  request.model_name = "/gridlb/model/sweep3d";
  request.deadline = 437.25;
  request.email = "user@gridlb.sim";
  request.origin = 12;
  const std::string payload = to_xml(request);
  for (auto _ : state) {
    xml::Reader document(payload);
    benchmark::DoNotOptimize(agents::request_from_xml(document));
  }
}
BENCHMARK(BM_DeliverRequest);

}  // namespace

BENCHMARK_MAIN();
