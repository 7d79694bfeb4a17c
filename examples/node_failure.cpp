// Node failure: the GA absorbing host departures and returns.
//
// A single 16-node cluster receives a steady task stream while half of
// its nodes fail mid-run and later return.  The resource monitor (polling
// every 30 s here for visibility; the paper polls every five minutes)
// reports the changes to the scheduler; the GA re-packs the pending queue
// onto the surviving nodes and spreads back out after the repair.
//
// Run: ./build/examples/node_failure

#include <cstdio>
#include <vector>

#include "gridlb.hpp"

int main() {
  using namespace gridlb;

  sim::Engine engine;
  const auto catalogue = pace::paper_catalogue();

  sched::LocalScheduler::Config config;
  config.resource_id = AgentId(1);
  config.resource = pace::ResourceModel::of(pace::HardwareType::kSunUltra10);
  config.node_count = 16;
  config.seed = 21;
  const pace::PredictionTable table(catalogue, {config.resource}, 16);

  std::vector<sched::CompletionRecord> completions;
  sched::LocalScheduler scheduler(
      engine, table, config,
      [&](const sched::CompletionRecord& r) { completions.push_back(r); });

  // The monitor owns the ground truth: nodes 8..15 fail at t=100 and
  // return at t=300.
  std::vector<sched::ChurnEvent> script;
  for (int node = 8; node < 16; ++node) {
    script.push_back({100.0, node, false});
    script.push_back({300.0, node, true});
  }
  sched::ResourceMonitor monitor(engine, scheduler, script, 30.0);
  monitor.start();

  // A steady stream: one task every 12 s for 20 minutes — comfortable
  // for 16 nodes, tight for the 8 that survive the outage.
  std::uint64_t id = 1;
  for (int i = 0; i < 100; ++i) {
    engine.schedule_at(static_cast<double>(i) * 12.0, [&, i]() {
      sched::Task task;
      task.id = TaskId(id++);
      task.app = catalogue.all()[static_cast<std::size_t>(i) % 7];
      const auto domain = task.app->deadline_domain();
      task.arrival = engine.now();
      task.deadline = engine.now() + (domain.lo + domain.hi) / 2.0;
      scheduler.submit(std::move(task));
    });
  }

  // Sample the scheduler's view once a minute.
  std::printf("t(s)   avail  pending  running\n");
  for (double t = 0.0; t <= 1260.0; t += 60.0) {
    engine.schedule_at(t, [&, t]() {
      std::printf("%4.0f   %5d  %7d  %7d\n", t,
                  sched::node_count(scheduler.available_nodes()),
                  scheduler.pending_count(), scheduler.running_count());
    });
  }
  engine.run_until(5000.0);

  int misses = 0;
  double busy_during_outage = 0.0;
  for (const auto& record : completions) {
    if (record.end > record.deadline) ++misses;
    // Any work scheduled onto nodes 8..15 during the outage window would
    // be a monitor/scheduler bug (graceful drain allows tasks *started*
    // before the failure report to finish).
    if (record.start > 130.0 && record.end < 300.0 &&
        (record.mask & 0xFF00u) != 0) {
      busy_during_outage += record.end - record.start;
    }
  }
  std::printf("\ncompleted %zu/100 tasks, %d missed deadlines\n",
              completions.size(), misses);
  std::printf("work started on failed nodes during the outage: %.1f s "
              "(expect 0)\n", busy_during_outage);
  return 0;
}
