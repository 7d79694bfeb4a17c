// Ablation: GA parameters (paper §2.1 uses a fixed population of 50).
//
// Sweeps population size and generation budget over a fixed 20-task
// scheduling problem and reports the achieved cost, makespan and deadline
// misses, quantifying how much search the case study's settings actually
// need.  Also isolates the two operator stages (crossover / mutation) and
// the greedy seeding.

#include <cstdio>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

std::vector<sched::Task> make_tasks(const pace::ApplicationCatalogue& apps) {
  Rng rng(17);
  std::vector<sched::Task> tasks;
  for (std::uint64_t i = 0; i < 20; ++i) {
    sched::Task task;
    task.id = TaskId(i);
    task.app = apps.all()[static_cast<std::size_t>(rng.next_below(apps.size()))];
    const auto domain = task.app->deadline_domain();
    task.deadline = rng.uniform(domain.lo, domain.hi);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

struct Row {
  double cost;
  double makespan;
  int misses;
  std::uint64_t decodes;
};

Row run(const pace::ApplicationCatalogue& apps, sched::GaConfig config,
        std::uint64_t seed) {
  const auto ultra5 = pace::ResourceModel::of(pace::HardwareType::kSunUltra5);
  const pace::PredictionTable table(apps, {ultra5}, 16);
  sched::ScheduleBuilder builder(table, ultra5, 16);
  sched::GaScheduler scheduler(builder, config, seed);
  const auto tasks = make_tasks(apps);
  const std::vector<SimTime> idle(16, 0.0);
  const auto result = scheduler.optimize(tasks, idle, 0.0);
  return Row{result.best_cost, result.schedule.makespan,
             result.schedule.deadline_misses, result.decodes};
}

}  // namespace

int main() {
  using namespace gridlb;
  const auto apps = pace::paper_catalogue();

  std::printf("population sweep (60 generations):\n");
  std::printf("  %4s %10s %10s %7s %9s\n", "pop", "cost", "makespan",
              "misses", "decodes");
  for (const int pop : {4, 10, 25, 50, 100}) {
    sched::GaConfig config;
    config.population_size = pop;
    config.generations = 60;
    const Row row = run(apps, config, 5);
    std::printf("  %4d %10.2f %10.1f %7d %9llu\n", pop, row.cost,
                row.makespan, row.misses,
                static_cast<unsigned long long>(row.decodes));
  }

  std::printf("\ngeneration sweep (population 50, the paper's setting):\n");
  std::printf("  %4s %10s %10s %7s\n", "gens", "cost", "makespan", "misses");
  for (const int generations : {1, 5, 15, 25, 60, 150}) {
    sched::GaConfig config;
    config.generations = generations;
    const Row row = run(apps, config, 5);
    std::printf("  %4d %10.2f %10.1f %7d\n", generations, row.cost,
                row.makespan, row.misses);
  }

  std::printf("\noperator ablation (population 50, 60 generations):\n");
  std::printf("  %-28s %10s %10s %7s\n", "variant", "cost", "makespan",
              "misses");
  struct Variant {
    const char* name;
    void (*apply)(sched::GaConfig&);
  };
  const Variant variants[] = {
      {"full (paper configuration)", [](sched::GaConfig&) {}},
      {"no crossover",
       [](sched::GaConfig& c) { c.crossover_rate = 0.0; }},
      {"no mutation",
       [](sched::GaConfig& c) {
         c.order_swap_rate = 0.0;
         c.bit_flip_rate = 0.0;
       }},
      {"no greedy seeding",
       [](sched::GaConfig& c) { c.seed_heuristic = false; }},
      {"no elitism", [](sched::GaConfig& c) { c.elite = 0; }},
  };
  for (const auto& variant : variants) {
    sched::GaConfig config;
    config.generations = 60;
    variant.apply(config);
    const Row row = run(apps, config, 5);
    std::printf("  %-28s %10.2f %10.1f %7d\n", variant.name, row.cost,
                row.makespan, row.misses);
  }
  return 0;
}
