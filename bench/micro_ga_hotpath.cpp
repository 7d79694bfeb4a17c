// GA evaluation hot-path throughput (google-benchmark).
//
// The GA spends nearly all of its time in the evaluate phase — decode +
// cost for every individual, every generation.  These benches measure that
// phase on the paper's 16-node resource workload: a population sweep with
// the self-contained decode (BM_PopulationDecode, the reference path), the
// same sweep through the DESIGN.md §11 hot path (BM_PopulationEvaluate:
// prepared context + metrics-only evaluate into one scratch), and a whole
// GaScheduler::optimize call (BM_GaOptimize).  items_per_second is
// evaluations/s.  BM_Mutate and BM_Crossover time the breeding operators
// on their own.
//
// `--json <path>` additionally writes the machine-readable hot-path report
// (steady_clock, independent of google-benchmark): on the 600-task
// case-study workload, ns per self-contained decode, per prepared-context
// evaluate and per prepared-context decode, the GA's decode and table-read
// counters, the table's entry count, peak RSS, and the derived
// speedup_vs_full_decode ratio that tools/ci/check_bench_regression.py
// gates on.

#include <benchmark/benchmark.h>

#include <fstream>

#include "gridlb.hpp"
#include "json_bench.hpp"

namespace {

using namespace gridlb;

constexpr int kNodes = 16;

const pace::ApplicationCatalogue& catalogue() {
  static const pace::ApplicationCatalogue paper = pace::paper_catalogue();
  return paper;
}

// The paper's local-scheduler workload: a 16-node SGI Origin2000 and a
// pending queue drawn from the Table 1 application mix.
std::vector<sched::Task> make_tasks(int count) {
  const pace::ApplicationCatalogue& apps = catalogue();
  Rng rng(2003);
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

std::vector<sched::SolutionString> make_population(int size, int tasks) {
  Rng rng(7);
  std::vector<sched::SolutionString> population;
  for (int k = 0; k < size; ++k) {
    population.push_back(sched::SolutionString::random(tasks, kNodes, rng));
  }
  return population;
}

constexpr int kPopulation = 50;
constexpr int kSweepTasks = 20;

// One population sweep through the self-contained decode: every decode
// re-prepares its context and allocates its placements vector.
void BM_PopulationDecode(benchmark::State& state) {
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const pace::PredictionTable table(catalogue(), {sgi}, kNodes);
  sched::ScheduleBuilder builder(table, sgi, kNodes);
  const auto tasks = make_tasks(kSweepTasks);
  const std::vector<SimTime> idle(kNodes, 0.0);
  const auto population = make_population(kPopulation, kSweepTasks);

  const sched::CostWeights weights;
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& solution : population) {
      sum += cost_value(builder.decode(tasks, solution, idle, 0.0), weights);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kPopulation);
}
BENCHMARK(BM_PopulationDecode)->Unit(benchmark::kMicrosecond);

// The GA's steady-state evaluate phase (DESIGN.md §11): one prepared
// DecodeContext, one DecodeScratch, metrics-only evaluate — zero
// allocations and zero lock acquisitions per individual.
void BM_PopulationEvaluate(benchmark::State& state) {
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const pace::PredictionTable table(catalogue(), {sgi}, kNodes);
  sched::ScheduleBuilder builder(table, sgi, kNodes);
  const auto tasks = make_tasks(kSweepTasks);
  const std::vector<SimTime> idle(kNodes, 0.0);
  const auto population = make_population(kPopulation, kSweepTasks);

  sched::DecodeContext context;
  sched::DecodeScratch scratch;
  builder.prepare(context, tasks, idle, 0.0, sched::full_mask(kNodes));
  const sched::CostWeights weights;
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& solution : population) {
      sum += cost_value(builder.evaluate(context, solution, scratch), weights);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kPopulation);
}
BENCHMARK(BM_PopulationEvaluate)->Unit(benchmark::kMicrosecond);

// A whole optimize() at the paper's settings: evaluation plus selection,
// crossover and mutation.
void BM_GaOptimize(benchmark::State& state) {
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const pace::PredictionTable table(catalogue(), {sgi}, kNodes);
  sched::ScheduleBuilder builder(table, sgi, kNodes);
  const auto tasks = make_tasks(kSweepTasks);
  const std::vector<SimTime> idle(kNodes, 0.0);

  sched::GaConfig config;
  config.generations = 10;
  sched::GaScheduler scheduler(builder, config, 11);

  std::uint64_t decodes = 0;
  for (auto _ : state) {
    const auto result = scheduler.optimize(tasks, idle, 0.0);
    decodes += result.decodes;
    benchmark::DoNotOptimize(result.best_cost);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(decodes));
}
BENCHMARK(BM_GaOptimize)->Unit(benchmark::kMillisecond);

// The breeding operators alone, at the queue lengths the local schedulers
// see (3 tasks: experiment 3's mean; 40: a backed-up queue) on 16 nodes.
// Diagnostic only: no JSON field and no gate.  items_per_second is
// children bred per second.
void BM_Mutate(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  auto population = make_population(kPopulation, tasks);
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
  const int tasks = static_cast<int>(state.range(0));
  const auto population = make_population(kPopulation, tasks);
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

// The `--json` report, measured with steady_clock on the 600-task
// case-study workload.
void write_hotpath_report(const std::string& path) {
  constexpr int kTasks = 600;

  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const pace::PredictionTable table(catalogue(), {sgi}, kNodes);
  sched::ScheduleBuilder builder(table, sgi, kNodes);
  const auto tasks = make_tasks(kTasks);
  const std::vector<SimTime> idle(kNodes, 0.0);
  Rng rng(17);
  const auto solution = sched::SolutionString::random(kTasks, kNodes, rng);

  // Best-of-7 with ≥0.15 s batches: the report feeds a CI regression gate,
  // so favour repeatability over wall time (~3 s total).
  constexpr int kReps = 7;
  constexpr double kBatchSeconds = 0.15;

  // Self-contained decode: context and placements per call.
  const double full_decode_ns = benchjson::measure_ns_per_op(
      [&](std::int64_t iters) {
        for (std::int64_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(builder.decode(tasks, solution, idle, 0.0));
        }
      },
      kReps, kBatchSeconds);

  // Hot path: context prepared once, metrics-only evaluate per individual.
  sched::DecodeContext context;
  sched::DecodeScratch scratch;
  builder.prepare(context, tasks, idle, 0.0, sched::full_mask(kNodes));
  (void)builder.evaluate(context, solution, scratch);  // size the scratch
  const double evaluate_ns = benchjson::measure_ns_per_op(
      [&](std::int64_t iters) {
        for (std::int64_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(
              builder.evaluate(context, solution, scratch));
        }
      },
      kReps, kBatchSeconds);

  // Winner decode under the prepared context (runs once per GA call).
  const double context_decode_ns = benchjson::measure_ns_per_op(
      [&](std::int64_t iters) {
        for (std::int64_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(builder.decode(context, solution, scratch));
        }
      },
      kReps, kBatchSeconds);

  // One GA run at the paper's settings for the decode/table counters.
  const auto ga_tasks = make_tasks(kSweepTasks);
  sched::GaConfig config;
  config.population_size = 50;
  config.generations = 50;
  sched::GaScheduler scheduler(builder, config, 11);
  const auto ga = scheduler.optimize(ga_tasks, idle, 0.0);

  std::ofstream out(path);
  benchjson::JsonWriter json(out);
  json.begin_object();
  json.field("bench", "micro_ga_hotpath");
  json.field("schema_version", 4);
  json.begin_object("workload");
  json.field("tasks", kTasks);
  json.field("nodes", kNodes);
  json.field("resource", "SgiOrigin2000");
  json.end_object();
  json.begin_object("full_decode");
  json.field("path", "self-contained decode");
  json.field("ns_per_decode", full_decode_ns);
  json.field("decodes_per_second", 1e9 / full_decode_ns);
  json.end_object();
  json.begin_object("hot_path_evaluate");
  json.field("path", "prepared-context evaluate");
  json.field("ns_per_evaluate", evaluate_ns);
  json.field("evaluates_per_second", 1e9 / evaluate_ns);
  json.end_object();
  json.begin_object("context_decode");
  json.field("ns_per_decode", context_decode_ns);
  json.end_object();
  json.field("speedup_vs_full_decode", full_decode_ns / evaluate_ns);
  json.begin_object("ga");
  json.field("population", config.population_size);
  json.field("generations", config.generations);
  json.field("decodes", ga.decodes);
  json.field("table_reads", ga.table_reads);
  json.end_object();
  json.begin_object("table");
  json.field("entries", static_cast<std::uint64_t>(table.entries()));
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
  if (!json_path.empty()) write_hotpath_report(json_path);
  return 0;
}
