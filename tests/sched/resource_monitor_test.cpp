#include "sched/resource_monitor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>

#include "common/assert.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::sched {
namespace {

ChurnConfig churn(double horizon, double mtbf, double mttr) {
  return ChurnConfig{
      .enabled = true, .mtbf = mtbf, .mttr = mttr, .horizon = horizon};
}

TEST(AvailabilityScript, DeterministicAndSorted) {
  const auto a = churn_script(churn(1000.0, 100.0, 20.0), 8, 5);
  const auto b = churn_script(churn(1000.0, 100.0, 20.0), 8, 5);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].unit, b[i].unit);
    EXPECT_EQ(a[i].up, b[i].up);
  }
  // Draw order: unit by unit, each unit's events in time order.
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].unit, a[i].unit);
    if (a[i - 1].unit == a[i].unit) {
      EXPECT_LT(a[i - 1].at, a[i].at);
    }
  }
}

TEST(AvailabilityScript, AlternatesPerNode) {
  const auto script = churn_script(churn(2000.0, 100.0, 30.0), 4, 9);
  // Per node: failures fall before the horizon, and each failure is
  // followed by its repair (which may fall after it), so every node ends
  // up.
  std::array<int, 4> last_state;  // 1 = up, 0 = down, -1 = unknown
  last_state.fill(-1);
  for (const auto& event : script) {
    int& last = last_state[static_cast<std::size_t>(event.unit)];
    if (last == -1) {
      EXPECT_FALSE(event.up) << "first event must be a failure";
    } else {
      EXPECT_NE(event.up ? 1 : 0, last);
    }
    last = event.up ? 1 : 0;
    if (!event.up) {
      EXPECT_LT(event.at, 2000.0);
    }
    EXPECT_GT(event.at, 0.0);
  }
  for (const int last : last_state) EXPECT_EQ(last, 1);
}

TEST(AvailabilityScript, RepairPastTheHorizonIsKept) {
  // Failures arrive far faster than repairs: the last failure of every
  // unit is repaired only after the horizon.
  const auto script = churn_script(churn(100.0, 5.0, 1000.0), 4, 3);
  ASSERT_EQ(script.size() % 2, 0u);
  std::array<bool, 4> past{};
  for (const auto& event : script) {
    if (event.up && event.at >= 100.0) {
      past[static_cast<std::size_t>(event.unit)] = true;
    }
  }
  for (const bool repaired_late : past) EXPECT_TRUE(repaired_late);
}

TEST(AvailabilityScript, SkippedUnitDrawsNothing) {
  const auto all = churn_script(churn(1000.0, 100.0, 20.0), 3, 5);
  const auto skipped = churn_script(churn(1000.0, 100.0, 20.0), 3, 5, 0);
  for (const auto& event : skipped) EXPECT_NE(event.unit, 0);
  // Unit 1 of the skipped script draws what unit 0 of the full one drew.
  std::vector<SimTime> first;
  std::vector<SimTime> second;
  for (const auto& event : all) {
    if (event.unit == 0) first.push_back(event.at);
  }
  for (const auto& event : skipped) {
    if (event.unit == 1) second.push_back(event.at);
  }
  EXPECT_EQ(first, second);
}

TEST(AvailabilityScript, IntensityScalesWithMtbf) {
  const auto rare = churn_script(churn(10000.0, 2000.0, 100.0), 16, 3);
  const auto frequent = churn_script(churn(10000.0, 200.0, 100.0), 16, 3);
  EXPECT_GT(frequent.size(), rare.size() * 2);
}

TEST(AvailabilityScript, ValidatesArguments) {
  EXPECT_THROW((void)churn_script(churn(100.0, 10.0, 1.0), 0, 1),
               AssertionError);
  EXPECT_THROW((void)churn_script(churn(100.0, 0.0, 1.0), 4, 1),
               AssertionError);
  EXPECT_THROW((void)churn_script(churn(100.0, 10.0, 0.0), 4, 1),
               AssertionError);
  EXPECT_THROW((void)churn_script(churn(std::nan(""), 10.0, 1.0), 4, 1),
               AssertionError);
  // A zero horizon draws one up-time per unit and fails nothing.
  EXPECT_TRUE(churn_script(churn(0.0, 10.0, 1.0), 4, 1).empty());
  // The config's own check names the process.
  EXPECT_NO_THROW(ChurnConfig{}.validate("node"));
  ChurnConfig no_repair = churn(100.0, 10.0, 0.0);
  try {
    no_repair.validate("agent");
    ADD_FAILURE() << "a zero mttr must be rejected";
  } catch (const AssertionError& error) {
    EXPECT_NE(std::string(error.what())
                  .find("agent churn needs positive mtbf and mttr"),
              std::string::npos);
  }
}

struct MonitorFixture : ::testing::Test {
  sim::Engine engine;
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  pace::PredictionTable table{
      catalogue, {pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000)},
      8};
  std::vector<CompletionRecord> completions;

  std::unique_ptr<LocalScheduler> make_scheduler() {
    LocalScheduler::Config config;
    config.resource_id = AgentId(1);
    config.resource = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
    config.node_count = 8;
    config.seed = 3;
    return std::make_unique<LocalScheduler>(
        engine, table, config,
        [this](const CompletionRecord& r) { completions.push_back(r); });
  }
};

// The monitor owns its resource's ground truth.
struct NodeAvailability : MonitorFixture {};
struct ScheduleAvailability : MonitorFixture {};

TEST_F(NodeAvailability, StartsAllUp) {
  auto scheduler = make_scheduler();
  const ResourceMonitor monitor(engine, *scheduler, {}, 10.0);
  EXPECT_EQ(monitor.truth(), full_mask(8));
}

TEST_F(NodeAvailability, SetTogglesAndCounts) {
  auto scheduler = make_scheduler();
  const ResourceMonitor monitor(
      engine, *scheduler,
      {{1.0, 2, false}, {2.0, 2, false}, {3.0, 2, true}}, 10.0);
  engine.run_until(1.5);
  EXPECT_EQ(monitor.truth(), full_mask(8) & ~(NodeMask{1} << 2));
  engine.run_until(2.5);  // a second failure of a down node changes nothing
  EXPECT_EQ(monitor.truth(), full_mask(8) & ~(NodeMask{1} << 2));
  engine.run_until(3.5);
  EXPECT_EQ(monitor.truth(), full_mask(8));
}

TEST_F(NodeAvailability, RejectsBadIndices) {
  auto scheduler = make_scheduler();
  EXPECT_THROW(ResourceMonitor(engine, *scheduler, {{1.0, -1, false}}, 10.0),
               AssertionError);
  EXPECT_THROW(ResourceMonitor(engine, *scheduler, {{1.0, 8, false}}, 10.0),
               AssertionError);
}

TEST_F(ScheduleAvailability, MutatesTruthAtEventTimes) {
  auto scheduler = make_scheduler();
  const ResourceMonitor monitor(
      engine, *scheduler,
      {{10.0, 1, false}, {20.0, 1, true}, {15.0, 3, false}}, 100.0);
  const auto up = [&monitor](int node) {
    return ((monitor.truth() >> node) & 1u) != 0;
  };
  engine.run_until(12.0);
  EXPECT_FALSE(up(1));
  EXPECT_TRUE(up(3));
  engine.run_until(16.0);
  EXPECT_FALSE(up(3));
  engine.run_until(25.0);
  EXPECT_TRUE(up(1));
  EXPECT_FALSE(up(3));
}

TEST_F(MonitorFixture, PollPeriodGovernsStaleness) {
  auto scheduler = make_scheduler();
  ResourceMonitor monitor(engine, *scheduler, {{10.0, 2, false}}, 300.0);
  monitor.start();

  // Before the next poll the scheduler still believes node 2 is up.
  engine.run_until(100.0);
  EXPECT_TRUE((scheduler->available_nodes() >> 2) & 1u);
  // The t=300 poll reports the change.
  engine.run_until(301.0);
  EXPECT_EQ(scheduler->available_nodes(),
            full_mask(8) & ~(NodeMask{1} << 2));
}

TEST_F(MonitorFixture, ReportsRepairsToo) {
  auto scheduler = make_scheduler();
  ResourceMonitor monitor(engine, *scheduler,
                          {{10.0, 5, false}, {60.0, 5, true}}, 50.0);
  monitor.start();
  engine.run_until(51.0);
  EXPECT_FALSE((scheduler->available_nodes() >> 5) & 1u);
  engine.run_until(101.0);
  EXPECT_EQ(scheduler->available_nodes(), full_mask(8));
}

TEST_F(MonitorFixture, FlapWithinOnePollWindowIsInvisible) {
  auto scheduler = make_scheduler();
  // Down at t=10, back at t=50: the t=100 poll sees no difference.
  ResourceMonitor monitor(engine, *scheduler,
                          {{10.0, 4, false}, {50.0, 4, true}}, 100.0);
  monitor.start();
  engine.run_until(150.0);
  EXPECT_EQ(scheduler->available_nodes(), full_mask(8));
}

TEST_F(MonitorFixture, SchedulerAvoidsDownNodes) {
  auto scheduler = make_scheduler();
  // Nodes 4..7 fail immediately; the first poll is at t = 0 and the
  // failure at t = 1, so the t = 10 poll reports it.
  ResourceMonitor monitor(engine, *scheduler,
                          {{1.0, 4, false},
                           {1.0, 5, false},
                           {1.0, 6, false},
                           {1.0, 7, false}},
                          10.0);
  monitor.start();
  // Submit after the report.
  engine.schedule_at(12.0, [this, &scheduler]() {
    for (std::uint64_t i = 0; i < 6; ++i) {
      Task task;
      task.id = TaskId(i);
      task.app = catalogue.find("closure");
      task.arrival = engine.now();
      task.deadline = engine.now() + 1e6;
      scheduler->submit(std::move(task));
    }
  });
  engine.run_until(4000.0);
  ASSERT_EQ(completions.size(), 6u);
  for (const auto& record : completions) {
    EXPECT_EQ(record.mask & 0xF0u, 0u)
        << "task placed on a node known to be down";
  }
}

TEST_F(MonitorFixture, AllNodesDownHoldsQueueUntilRepair) {
  auto scheduler = make_scheduler();
  std::vector<ChurnEvent> script;
  for (int node = 0; node < 8; ++node) script.push_back({1.0, node, false});
  for (int node = 0; node < 8; ++node) script.push_back({100.0, node, true});
  ResourceMonitor monitor(engine, *scheduler, script, 5.0);
  monitor.start();

  engine.schedule_at(10.0, [this, &scheduler]() {
    Task task;
    task.id = TaskId(1);
    task.app = catalogue.find("cpi");
    task.arrival = engine.now();
    task.deadline = engine.now() + 1e6;
    scheduler->submit(std::move(task));
  });
  engine.run_until(50.0);
  EXPECT_EQ(completions.size(), 0u);
  EXPECT_EQ(scheduler->pending_count(), 1);
  engine.run_until(500.0);
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_GE(completions[0].start, 100.0);
}

TEST_F(MonitorFixture, MonitorValidatesConstruction) {
  auto scheduler = make_scheduler();
  EXPECT_THROW(ResourceMonitor(engine, *scheduler, {}, 0.0), AssertionError);
  EXPECT_THROW(ResourceMonitor(engine, *scheduler, {}, -1.0),
               AssertionError);
}

TEST_F(MonitorFixture, StartTwiceThrows) {
  auto scheduler = make_scheduler();
  ResourceMonitor monitor(engine, *scheduler, {}, 10.0);
  monitor.start();
  EXPECT_THROW(monitor.start(), AssertionError);
}

}  // namespace
}  // namespace gridlb::sched
