// Whole-system property tests: invariants that must hold for ANY seed and
// configuration of the full grid (portal → agents → schedulers → metrics).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <set>

#include "gridlb.hpp"
#include "sched/node_mask.hpp"

namespace gridlb::core {
namespace {

struct Scenario {
  std::uint64_t seed;
  sched::SchedulerPolicy policy;
  bool agents;
  double prediction_error;
};

// CTest names each case after the printed parameter, so this keeps the
// names stable (e.g. `.../seed6_ga_agents_error30pct`) in every build;
// GoogleTest's default prints the struct's raw bytes, padding included.
void PrintTo(const Scenario& scenario, std::ostream* os) {
  *os << "seed" << scenario.seed << '_'
      << (scenario.policy == sched::SchedulerPolicy::kGa ? "ga" : "fifo")
      << (scenario.agents ? "_agents" : "_local");
  if (scenario.prediction_error > 0.0) {
    *os << "_error" << std::lround(scenario.prediction_error * 100.0) << "pct";
  }
}

class SystemInvariants : public ::testing::TestWithParam<Scenario> {};

TEST_P(SystemInvariants, HoldAcrossTheWholeRun) {
  const Scenario& scenario = GetParam();

  sim::Engine engine;
  metrics::MetricsCollector collector;
  const auto catalogue = pace::paper_catalogue();

  agents::SystemConfig system_config;
  system_config.resources = case_study_resources();
  system_config.policy = scenario.policy;
  system_config.discovery_enabled = scenario.agents;
  system_config.prediction_error = scenario.prediction_error;
  system_config.seed = scenario.seed;
  agents::AgentSystem system(engine, catalogue, std::move(system_config),
                             &collector);
  system.start();
  agents::Portal portal(engine, system.network(), catalogue, &collector);

  WorkloadConfig workload_config;
  workload_config.count = 80;
  workload_config.seed = scenario.seed;
  const auto workload = generate_workload(workload_config, catalogue,
                                          static_cast<int>(system.size()));
  for (const auto& spec : workload) {
    engine.schedule_at(spec.at, [&, spec]() {
      portal.submit(system.agent(static_cast<std::size_t>(spec.agent_index)),
                    spec.app_name, engine.now() + spec.deadline_offset);
    });
  }
  while (collector.completed_tasks() < workload.size()) {
    ASSERT_TRUE(engine.step()) << "queue drained early";
    ASSERT_LT(engine.now(), 48.0 * 3600.0) << "run did not converge";
  }

  // 1. Every submitted task completed exactly once.
  std::set<TaskId> seen;
  for (const auto& record : collector.records()) {
    EXPECT_TRUE(seen.insert(record.task).second)
        << "task completed twice: " << record.task.str();
  }
  EXPECT_EQ(seen.size(), workload.size());

  // 2. Temporal sanity on every record.
  for (const auto& record : collector.records()) {
    EXPECT_GE(record.start, record.submitted - 1e-9);
    EXPECT_GT(record.end, record.start);
    EXPECT_NE(record.mask, 0u);
    EXPECT_LE(sched::node_count(record.mask), 16);
  }

  // 3. No node ever runs two tasks at once (per resource).
  for (std::size_t resource = 1; resource <= system.size(); ++resource) {
    for (int node = 0; node < 16; ++node) {
      std::vector<std::pair<SimTime, SimTime>> intervals;
      for (const auto& record : collector.records()) {
        if (record.resource != AgentId(resource)) continue;
        if (((record.mask >> node) & 1u) == 0) continue;
        intervals.emplace_back(record.start, record.end);
      }
      std::sort(intervals.begin(), intervals.end());
      for (std::size_t i = 1; i < intervals.size(); ++i) {
        EXPECT_GE(intervals[i].first + 1e-9, intervals[i - 1].second)
            << "overlap on resource " << resource << " node " << node;
      }
    }
  }

  // 4. Utilisation bounded and the report internally consistent.
  const auto report = collector.report();
  for (const auto& row : report.resources) {
    EXPECT_GE(row.utilisation, 0.0);
    EXPECT_LE(row.utilisation, 1.0 + 1e-9);
    EXPECT_LE(row.balance, 1.0 + 1e-9);
    EXPECT_LE(row.deadlines_met, row.tasks);
  }
  EXPECT_EQ(report.total.tasks, static_cast<int>(workload.size()));

  // 5. With prediction error disabled, committed executions match the
  // PACE predictions exactly.
  if (scenario.prediction_error == 0.0) {
    for (const auto& record : collector.records()) {
      const auto model = catalogue.find(record.app_name);
      const auto& scheduler =
          system.agent(record.resource.value() - 1).scheduler();
      const double predicted =
          model->reference_time(sched::node_count(record.mask)) *
          scheduler.config().resource.factor;
      EXPECT_NEAR(record.end - record.start, predicted, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SystemInvariants,
    ::testing::Values(
        Scenario{1, sched::SchedulerPolicy::kGa, true, 0.0},
        Scenario{2, sched::SchedulerPolicy::kGa, true, 0.0},
        Scenario{3, sched::SchedulerPolicy::kGa, false, 0.0},
        Scenario{4, sched::SchedulerPolicy::kFifo, false, 0.0},
        Scenario{5, sched::SchedulerPolicy::kFifo, true, 0.0},
        Scenario{6, sched::SchedulerPolicy::kGa, true, 0.3},
        Scenario{7, sched::SchedulerPolicy::kFifo, false, 0.5},
        Scenario{8, sched::SchedulerPolicy::kGa, true, 0.0},
        Scenario{9, sched::SchedulerPolicy::kGa, false, 0.2},
        Scenario{10, sched::SchedulerPolicy::kFifo, true, 0.0}));

}  // namespace
}  // namespace gridlb::core
