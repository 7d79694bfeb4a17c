#include "sched/resource_monitor.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::sched {
namespace {

TEST(NodeAvailability, StartsAllUp) {
  const NodeAvailability availability(4);
  EXPECT_EQ(availability.mask(), full_mask(4));
  EXPECT_TRUE(availability.up(0));
  EXPECT_TRUE(availability.up(3));
}

TEST(NodeAvailability, SetTogglesAndCounts) {
  NodeAvailability availability(4);
  availability.set(2, false);
  EXPECT_FALSE(availability.up(2));
  EXPECT_EQ(availability.mask(), 0b1011u);
  availability.set(2, false);  // idempotent
  EXPECT_EQ(availability.mask(), 0b1011u);
  availability.set(2, true);
  EXPECT_EQ(availability.mask(), full_mask(4));
}

TEST(NodeAvailability, RejectsBadIndices) {
  NodeAvailability availability(4);
  EXPECT_THROW(availability.set(-1, true), AssertionError);
  EXPECT_THROW(availability.set(4, true), AssertionError);
  EXPECT_THROW((void)availability.up(4), AssertionError);
}

TEST(AvailabilityScript, DeterministicAndSorted) {
  const auto a = random_availability_script(8, 1000.0, 100.0, 20.0, 5);
  const auto b = random_availability_script(8, 1000.0, 100.0, 20.0, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].up, b[i].up);
  }
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].at, a[i].at);
  }
}

TEST(AvailabilityScript, AlternatesPerNode) {
  const auto script = random_availability_script(4, 2000.0, 100.0, 30.0, 9);
  // Per node the first event must be a failure, and states must alternate.
  std::array<int, 4> last_state;  // 1 = up, 0 = down, -1 = unknown
  last_state.fill(-1);
  for (const auto& event : script) {
    const int state = event.up ? 1 : 0;
    if (last_state[static_cast<std::size_t>(event.node)] == -1) {
      EXPECT_FALSE(event.up) << "first event must be a failure";
    } else {
      EXPECT_NE(state, last_state[static_cast<std::size_t>(event.node)]);
    }
    last_state[static_cast<std::size_t>(event.node)] = state;
    EXPECT_LT(event.at, 2000.0);
    EXPECT_GT(event.at, 0.0);
  }
}

TEST(AvailabilityScript, IntensityScalesWithMtbf) {
  const auto rare = random_availability_script(16, 10000.0, 2000.0, 100.0, 3);
  const auto frequent =
      random_availability_script(16, 10000.0, 200.0, 100.0, 3);
  EXPECT_GT(frequent.size(), rare.size() * 2);
}

TEST(AvailabilityScript, ValidatesArguments) {
  EXPECT_THROW(random_availability_script(0, 100.0, 10.0, 1.0, 1),
               AssertionError);
  EXPECT_THROW(random_availability_script(4, 0.0, 10.0, 1.0, 1),
               AssertionError);
  EXPECT_THROW(random_availability_script(4, 100.0, 0.0, 1.0, 1),
               AssertionError);
  EXPECT_THROW(random_availability_script(4, 100.0, 10.0, 0.0, 1),
               AssertionError);
}

TEST(ScheduleAvailability, MutatesTruthAtEventTimes) {
  sim::Engine engine;
  NodeAvailability truth(4);
  schedule_availability(engine, truth,
                        {{10.0, 1, false}, {20.0, 1, true}, {15.0, 3, false}});
  engine.run_until(12.0);
  EXPECT_FALSE(truth.up(1));
  EXPECT_TRUE(truth.up(3));
  engine.run_until(16.0);
  EXPECT_FALSE(truth.up(3));
  engine.run_until(25.0);
  EXPECT_TRUE(truth.up(1));
  EXPECT_FALSE(truth.up(3));
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

TEST_F(MonitorFixture, PollPeriodGovernsStaleness) {
  auto scheduler = make_scheduler();
  NodeAvailability truth(8);
  ResourceMonitor monitor(engine, *scheduler, truth, 300.0);
  monitor.start();
  schedule_availability(engine, truth, {{10.0, 2, false}});

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
  NodeAvailability truth(8);
  ResourceMonitor monitor(engine, *scheduler, truth, 50.0);
  monitor.start();
  schedule_availability(engine, truth, {{10.0, 5, false}, {60.0, 5, true}});
  engine.run_until(51.0);
  EXPECT_FALSE((scheduler->available_nodes() >> 5) & 1u);
  engine.run_until(101.0);
  EXPECT_EQ(scheduler->available_nodes(), full_mask(8));
}

TEST_F(MonitorFixture, FlapWithinOnePollWindowIsInvisible) {
  auto scheduler = make_scheduler();
  NodeAvailability truth(8);
  ResourceMonitor monitor(engine, *scheduler, truth, 100.0);
  monitor.start();
  // Down at t=10, back at t=50: the t=100 poll sees no difference.
  schedule_availability(engine, truth, {{10.0, 4, false}, {50.0, 4, true}});
  engine.run_until(150.0);
  EXPECT_EQ(scheduler->available_nodes(), full_mask(8));
}

TEST_F(MonitorFixture, SchedulerAvoidsDownNodes) {
  auto scheduler = make_scheduler();
  NodeAvailability truth(8);
  ResourceMonitor monitor(engine, *scheduler, truth, 10.0);
  monitor.start();
  // Nodes 4..7 fail immediately; the first poll is at t = 0 and the
  // failure at t = 1, so the t = 10 poll reports it.
  schedule_availability(engine, truth, {{1.0, 4, false},
                                        {1.0, 5, false},
                                        {1.0, 6, false},
                                        {1.0, 7, false}});
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
  NodeAvailability truth(8);
  ResourceMonitor monitor(engine, *scheduler, truth, 5.0);
  monitor.start();
  std::vector<AvailabilityEvent> script;
  for (int node = 0; node < 8; ++node) script.push_back({1.0, node, false});
  for (int node = 0; node < 8; ++node) script.push_back({100.0, node, true});
  schedule_availability(engine, truth, std::move(script));

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
  NodeAvailability wrong(4);
  EXPECT_THROW(ResourceMonitor(engine, *scheduler, wrong, 10.0),
               AssertionError);
  NodeAvailability truth(8);
  EXPECT_THROW(ResourceMonitor(engine, *scheduler, truth, 0.0),
               AssertionError);
}

TEST_F(MonitorFixture, StartTwiceThrows) {
  auto scheduler = make_scheduler();
  NodeAvailability truth(8);
  ResourceMonitor monitor(engine, *scheduler, truth, 10.0);
  monitor.start();
  EXPECT_THROW(monitor.start(), AssertionError);
}

}  // namespace
}  // namespace gridlb::sched
