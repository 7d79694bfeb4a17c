// Custom application models: bring your own PACE model and hardware.
//
// The paper's users are "scientists who are both program developers and
// end users": they model their own codes with the PACE application tools.
// This example defines two parametric application models (a
// communication-heavy stencil and an embarrassingly-parallel sweep), a
// custom hardware platform, and compares the GA scheduler against the
// FIFO baseline on an identical task stream.
//
// Run: ./build/examples/custom_application

#include <cstdio>
#include <memory>
#include <vector>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

struct PolicyOutcome {
  double makespan = 0.0;
  double idle = 0.0;
  int misses = 0;
};

PolicyOutcome run_policy(sched::SchedulerPolicy policy,
                         const pace::ApplicationCatalogue& catalogue) {
  sim::Engine engine;

  // A custom 12-node platform, 1.3× slower than the SGI reference.
  const pace::ResourceModel custom{pace::HardwareType::kSunUltra10, 1.3};
  const int nodes = 12;
  const pace::PredictionTable table(catalogue, {custom}, nodes);

  sched::LocalScheduler::Config config;
  config.resource_id = AgentId(1);
  config.resource = custom;
  config.node_count = nodes;
  config.policy = policy;
  config.ga.generations = 60;
  config.seed = 11;

  double last_end = 0.0;
  int misses = 0;
  double busy = 0.0;
  sched::LocalScheduler scheduler(
      engine, table, config,
      [&](const sched::CompletionRecord& record) {
        last_end = std::max(last_end, record.end);
        busy += (record.end - record.start) *
                sched::node_count(record.mask);
        if (record.end > record.deadline) ++misses;
      });

  // Twenty tasks alternating between the two custom models, arriving in
  // two bursts.
  std::uint64_t id = 1;
  for (int burst = 0; burst < 2; ++burst) {
    engine.schedule_at(static_cast<double>(burst) * 30.0, [&, burst]() {
      for (int i = 0; i < 10; ++i) {
        sched::Task task;
        task.id = TaskId(id++);
        task.app = catalogue.all()[static_cast<std::size_t>(i % 2)];
        task.arrival = engine.now();
        task.deadline = engine.now() + 90.0;
        scheduler.submit(std::move(task));
      }
    });
  }
  engine.run();

  PolicyOutcome outcome;
  outcome.makespan = last_end;
  outcome.idle = last_end * nodes - busy;
  outcome.misses = misses;
  return outcome;
}

}  // namespace

int main() {
  // --- define the custom PACE application models --------------------------
  pace::ApplicationCatalogue catalogue;

  // A stencil code: good scaling up to ~8 nodes, then communication wins.
  pace::ParametricModel::Params stencil;
  stencil.serial = 2.0;
  stencil.parallel = 60.0;
  stencil.comm_per_link = 0.8;
  stencil.sync = 0.5;
  stencil.max_procs = 16;
  catalogue.add(std::make_shared<pace::ParametricModel>(
      "stencil2d", pace::DeadlineDomain{10, 120}, stencil));

  // A parameter sweep: almost perfectly parallel.
  pace::ParametricModel::Params sweep;
  sweep.serial = 0.5;
  sweep.parallel = 45.0;
  sweep.comm_per_link = 0.05;
  sweep.sync = 0.1;
  sweep.max_procs = 16;
  catalogue.add(std::make_shared<pace::ParametricModel>(
      "paramsweep", pace::DeadlineDomain{10, 120}, sweep));

  std::printf("predicted reference runtimes (seconds):\n  procs:");
  for (int k = 1; k <= 12; ++k) std::printf(" %5d", k);
  std::printf("\n");
  for (const auto& app : catalogue.all()) {
    std::printf("  %-10s", app->name().c_str());
    for (int k = 1; k <= 12; ++k) {
      std::printf(" %5.1f", app->reference_time(k));
    }
    std::printf("\n");
  }

  // --- GA vs FIFO on the same stream --------------------------------------
  const PolicyOutcome fifo =
      run_policy(sched::SchedulerPolicy::kFifo, catalogue);
  const PolicyOutcome ga = run_policy(sched::SchedulerPolicy::kGa, catalogue);

  std::printf("\n              %10s %10s\n", "FIFO", "GA");
  std::printf("makespan (s)  %10.1f %10.1f\n", fifo.makespan, ga.makespan);
  std::printf("idle (node·s) %10.1f %10.1f\n", fifo.idle, ga.idle);
  std::printf("missed dl     %10d %10d\n", fifo.misses, ga.misses);
  return 0;
}
