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
// projects the per-generation wall time with and without the cache at the
// paper's 0.01 s/evaluation.
//
// The cache is a PredictionTable (DESIGN.md §11): the key space — the
// applications × the resource's platform × nproc 1..16 — is finite and
// known up front, so every entry is evaluated once when the table is
// built and every prediction the GA requests afterwards is an array read.
// The paper's "cache absorbs the request stream" claim holds when engine
// evaluations (the table's entries) are a small fraction of the requests.
// Exits 1 when the claim fails, so CI can gate on it.

#include <cstdio>

#include "gridlb.hpp"

int main() {
  using namespace gridlb;

  const auto catalogue = pace::paper_catalogue();
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const pace::PredictionTable table(catalogue, {sgi}, 16);
  sched::ScheduleBuilder builder(table, sgi, 16);

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

  const double raw_eval_seconds = 0.01;  // the paper's figure
  const double requests = static_cast<double>(result.table_reads);
  const double evaluations = static_cast<double>(table.entries());
  const double requests_per_generation = requests / config.generations;
  const double absorbed = requests == 0.0 ? 0.0 : 1.0 - evaluations / requests;

  std::printf("GA evaluation stream: population %d, %d tasks, %d "
              "generations\n\n",
              config.population_size, static_cast<int>(tasks.size()),
              result.generations_run);
  std::printf("  prediction requests        : %llu (%.0f per generation)\n",
              static_cast<unsigned long long>(result.table_reads),
              requests_per_generation);
  std::printf("  engine evaluations (table) : %zu (%zu apps x 16 nodes)\n",
              table.entries(), catalogue.size());
  std::printf("  requests absorbed          : %.2f%%\n", absorbed * 100.0);
  std::printf("\nprojected PACE cost at %.2f s/evaluation (paper's figure):\n",
              raw_eval_seconds);
  std::printf("  without caching : %6.2f s per generation\n",
              requests_per_generation * raw_eval_seconds);
  std::printf("  with the table  : %6.2f s once, when the table is built\n",
              evaluations * raw_eval_seconds);
  const bool pass = absorbed > 0.9;
  std::printf("\n[%s] the prediction table absorbs >90%% of GA prediction "
              "requests\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
