// Ablation: the PACE evaluation cache (paper §2.2).
//
// "For a GA population of size 50, with 20 tasks being scheduled, 1000
// evaluations are required per generation.  If each evaluation takes 0.01
// seconds, then 10 seconds of computation are required per generation.
// However, many of the evaluations requested by the GA are likely to be
// exactly the same as those required by previous generations … a cache of
// all previous evaluations has been added between the scheduler and the
// PACE evaluation engine."
//
// This bench reproduces the motivating arithmetic: it replays the GA's
// evaluation request stream for a 20-task/50-individual population and
// projects the per-generation wall time with and without the caching
// layers at the paper's 0.01 s/evaluation.
//
// Since DESIGN.md §11 the layer is two-deep: each GA run snapshots the
// needed (application × nproc) predictions into a flat PredictionTable
// (the only step that touches the sharded cache), and every per-task
// prediction during evaluation is a lock-free table read.  The paper's
// "cache absorbs the request stream" claim holds for the stack: engine
// invocations per request ≈ 0.

#include <cstdio>

#include "gridlb.hpp"

int main() {
  using namespace gridlb;

  pace::EvaluationEngine engine;
  pace::CachedEvaluator cache(engine);
  const auto catalogue = pace::paper_catalogue();
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  sched::ScheduleBuilder builder(cache, sgi, 16);

  // A 20-task queue drawn from the case-study mix.
  Rng rng(2003);
  std::vector<sched::Task> tasks;
  for (std::uint64_t i = 0; i < 20; ++i) {
    sched::Task task;
    task.id = TaskId(i);
    task.app = catalogue.all()[static_cast<std::size_t>(
        rng.next_below(catalogue.size()))];
    task.deadline = rng.uniform(20.0, 200.0);
    tasks.push_back(std::move(task));
  }

  sched::GaConfig config;
  config.population_size = 50;
  config.generations = 50;
  sched::GaScheduler scheduler(builder, config, 7);
  const std::vector<SimTime> idle(16, 0.0);
  const auto result = scheduler.optimize(tasks, idle, 0.0);

  const auto& stats = cache.stats();
  const double raw_eval_seconds = 0.01;  // the paper's figure
  const double requests = static_cast<double>(result.table_reads);
  const double requests_per_generation = requests / config.generations;
  const double engine_per_generation =
      static_cast<double>(engine.evaluations()) / config.generations;
  const double absorbed =
      requests == 0.0
          ? 0.0
          : 1.0 - static_cast<double>(engine.evaluations()) / requests;

  std::printf("GA evaluation stream: population %d, %d tasks, %d "
              "generations\n\n",
              config.population_size, static_cast<int>(tasks.size()),
              result.generations_run);
  std::printf("  prediction requests        : %llu (%.0f per generation)\n",
              static_cast<unsigned long long>(result.table_reads),
              requests_per_generation);
  std::printf("  served by table snapshot   : lock-free array reads\n");
  std::printf("  snapshot builds (cache)    : %llu lookups, %llu distinct\n",
              static_cast<unsigned long long>(stats.lookups()),
              static_cast<unsigned long long>(stats.misses));
  std::printf("  engine invocations         : %llu\n",
              static_cast<unsigned long long>(engine.evaluations()));
  std::printf("  requests absorbed          : %.2f%%\n", absorbed * 100.0);
  std::printf("\nprojected PACE cost at %.2f s/evaluation (paper's figure):\n",
              raw_eval_seconds);
  std::printf("  without caching : %6.2f s per generation\n",
              requests_per_generation * raw_eval_seconds);
  std::printf("  with table+cache: %6.2f s per generation (the first "
              "generation pays the snapshot)\n",
              engine_per_generation * raw_eval_seconds);
  std::printf("\n[%s] table+cache absorb >90%% of GA prediction requests\n",
              absorbed > 0.9 ? "PASS" : "FAIL");
  return 0;
}
