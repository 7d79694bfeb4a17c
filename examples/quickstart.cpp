// Quickstart: schedule a batch of tasks on one grid resource with the GA.
//
// This exercises the lowest public layer of the library — PACE models, the
// evaluation engine, and the GA scheduler — without agents or a network.
// It prints the evolved schedule as a Gantt chart in the style of the
// paper's Fig. 2.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "gridlb.hpp"
#include "report/gantt.hpp"

using namespace gridlb;

int main() {
  // A 16-node SGIOrigin2000 — the reference platform of Table 1.
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  const auto resource =
      pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const int nodes = 16;
  // Every t_x the scheduler can ask for, evaluated once up front.
  const pace::PredictionTable table(catalogue, {resource}, nodes);
  sched::ScheduleBuilder builder(table, resource, nodes);

  // Ten tasks drawn from the paper's application set, all submitted at
  // t = 0 with deadlines in the middle of their Table 1 domains.
  std::vector<sched::Task> tasks;
  const char* apps[] = {"sweep3d", "fft",     "improc", "closure", "jacobi",
                        "memsort", "cpi",     "sweep3d", "jacobi",  "fft"};
  std::uint64_t id = 1;
  for (const char* name : apps) {
    sched::Task task;
    task.id = TaskId(id++);
    task.app = catalogue.find(name);
    task.arrival = 0.0;
    const auto domain = task.app->deadline_domain();
    task.deadline = (domain.lo + domain.hi) / 2.0;
    tasks.push_back(std::move(task));
  }

  // Evolve a schedule.
  sched::GaConfig config;
  config.generations = 100;
  sched::GaScheduler scheduler(builder, config, /*seed=*/7);
  const std::vector<SimTime> node_free(nodes, 0.0);
  const sched::GaResult result = scheduler.optimize(tasks, node_free, 0.0);

  std::printf("GA schedule over %zu tasks on %d nodes\n", tasks.size(), nodes);
  std::printf("  makespan        : %.1f s\n", result.schedule.makespan);
  std::printf("  idle time       : %.1f s (front-weighted %.1f)\n",
              result.schedule.total_idle, result.schedule.weighted_idle);
  std::printf("  deadline misses : %d of %zu\n",
              result.schedule.deadline_misses, tasks.size());
  std::printf("  cost value      : %.3f after %d generations (%llu decodes)\n",
              result.best_cost, result.generations_run,
              static_cast<unsigned long long>(result.decodes));

  std::printf("\ntask  app      nodes  start    end   deadline\n");
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const sched::TaskPlacement& p = result.schedule.placements[t];
    std::printf("  %c   %-8s %5d  %5.1f  %5.1f  %8.1f%s\n",
                static_cast<char>('A' + static_cast<int>(t % 26)),
                tasks[t].app->name().c_str(), sched::node_count(p.mask),
                p.start, p.end, tasks[t].deadline,
                p.end > tasks[t].deadline ? "  LATE" : "");
  }
  std::printf("\nGantt chart (one row per node):\n%s",
              report::render_schedule(tasks, result.schedule, nodes).c_str());
  return 0;
}
