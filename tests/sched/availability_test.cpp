// Availability-constrained scheduling across the sched layer: solution
// constraining, decoding with down nodes, GA/FIFO placement restrictions,
// task cancellation, and the prediction-error execution model.
#include <gtest/gtest.h>

#include <span>

#include "common/assert.hpp"
#include "pace/paper_applications.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/ga_scheduler.hpp"
#include "sched/local_scheduler.hpp"

namespace gridlb::sched {
namespace {

/// The full Gantt view of one schedule: prepares a fresh context and
/// decodes `solution` under it, every node up unless `available` says
/// otherwise.
DecodedSchedule prepare_and_decode(const ScheduleBuilder& builder,
                                   std::span<const Task> tasks,
                                   const SolutionString& solution,
                                   std::span<const SimTime> node_free,
                                   SimTime now,
                                   NodeMask available = ~NodeMask{0}) {
  DecodeContext context;
  DecodeScratch scratch;
  builder.prepare(context, tasks, node_free, now,
                  available & full_mask(builder.node_count()));
  return builder.decode(context, solution, scratch);
}

struct AvailabilityFixture : ::testing::Test {
  pace::ResourceModel sgi =
      pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  pace::PredictionTable table{catalogue, {sgi}, 8};
  ScheduleBuilder builder{table, sgi, 8};
  std::vector<SimTime> idle = std::vector<SimTime>(8, 0.0);

  std::vector<Task> make_tasks(int count) {
    std::vector<Task> tasks;
    for (int i = 0; i < count; ++i) {
      Task task;
      task.id = TaskId(static_cast<std::uint64_t>(i));
      task.app = catalogue.all()[static_cast<std::size_t>(i) % 7];
      task.deadline = 500.0;
      tasks.push_back(std::move(task));
    }
    return tasks;
  }
};

TEST_F(AvailabilityFixture, ConstrainIntersectsAndRepairs) {
  Rng rng(1);
  auto solution = SolutionString::random(10, 8, rng);
  const NodeMask allowed = 0b00001111;
  solution.constrain(allowed, rng);
  EXPECT_TRUE(solution.valid());
  for (int t = 0; t < 10; ++t) {
    EXPECT_EQ(solution.mask_of(t) & ~allowed, 0u);
    EXPECT_NE(solution.mask_of(t), 0u);
  }
}

TEST_F(AvailabilityFixture, ConstrainPreservesSubsets) {
  Rng rng(2);
  SolutionString solution({0, 1}, {0b0011, 0b1100}, 8);
  solution.constrain(0b0111, rng);
  EXPECT_EQ(solution.mask_of(0), 0b0011u);  // already inside: untouched
  EXPECT_EQ(solution.mask_of(1), 0b0100u);  // clipped to the allowed part
}

TEST_F(AvailabilityFixture, ConstrainRejectsEmptyAllowedSet) {
  Rng rng(3);
  auto solution = SolutionString::random(4, 8, rng);
  EXPECT_THROW(solution.constrain(0, rng), AssertionError);
}

TEST_F(AvailabilityFixture, DecodePushesDownNodeWorkToHorizon) {
  const auto tasks = make_tasks(1);
  // Task allocated on node 7, which is down.
  const SolutionString solution({0}, {0b10000000}, 8);
  const auto decoded =
      prepare_and_decode(builder, tasks, solution, idle, 0.0,
                         /*available=*/0b01111111);
  EXPECT_GE(decoded.placements[0].start, ScheduleBuilder::kUnavailableHorizon);
}

TEST_F(AvailabilityFixture, DecodeIgnoresDownNodesForIdle) {
  const auto tasks = make_tasks(1);
  const SolutionString solution({0}, {0b00000001}, 8);
  const NodeMask half = 0b00001111;
  const auto full_decode =
      prepare_and_decode(builder, tasks, solution, idle, 0.0);
  const auto half_decode =
      prepare_and_decode(builder, tasks, solution, idle, 0.0, half);
  // With 4 nodes down, only 3 idle nodes remain to accumulate trailing
  // idle (vs 7 with everything up).
  EXPECT_LT(half_decode.total_idle, full_decode.total_idle);
  EXPECT_DOUBLE_EQ(half_decode.makespan, full_decode.makespan);
}

TEST_F(AvailabilityFixture, GaRespectsAvailabilityMask) {
  GaConfig config;
  config.generations = 10;
  GaScheduler scheduler(builder, config, 5);
  const auto tasks = make_tasks(8);
  const NodeMask available = 0b00111100;
  const auto result = scheduler.optimize(tasks, idle, 0.0, available);
  EXPECT_TRUE(result.best.valid());
  for (int t = 0; t < result.best.task_count(); ++t) {
    EXPECT_EQ(result.best.mask_of(t) & ~available, 0u)
        << "task " << t << " uses a down node";
  }
  EXPECT_LT(result.schedule.completion,
            ScheduleBuilder::kUnavailableHorizon);
}

TEST_F(AvailabilityFixture, GaRejectsAllNodesDown) {
  GaScheduler scheduler(builder, GaConfig{}, 5);
  const auto tasks = make_tasks(2);
  EXPECT_THROW(scheduler.optimize(tasks, idle, 0.0, 0), AssertionError);
}

TEST_F(AvailabilityFixture, GaShrinkThenGrowAcrossInvocations) {
  GaConfig config;
  config.generations = 10;
  GaScheduler scheduler(builder, config, 7);
  const auto tasks = make_tasks(6);
  const auto narrow = scheduler.optimize(tasks, idle, 0.0, 0b00000011);
  for (int t = 0; t < 6; ++t) {
    EXPECT_EQ(narrow.best.mask_of(t) & ~NodeMask{0b11}, 0u);
  }
  // Nodes return: the warm-started population must spread out again.
  const auto wide = scheduler.optimize(tasks, idle, 10.0, full_mask(8));
  EXPECT_TRUE(wide.best.valid());
  EXPECT_LE(wide.schedule.makespan, narrow.schedule.makespan);
}

TEST_F(AvailabilityFixture, FifoNeverChoosesDownNodes) {
  FifoScheduler fifo(table, sgi, 8, FifoObjective::kMinExecution);
  Task task;
  task.id = TaskId(1);
  task.app = catalogue.find("cpi");
  task.deadline = 1e6;
  const NodeMask available = 0b00011111;
  const auto placement = fifo.place(task, idle, 0.0, available);
  EXPECT_NE(placement.mask, 0u);
  EXPECT_EQ(placement.mask & ~available, 0u);
}

TEST_F(AvailabilityFixture, FifoRejectsAllDown) {
  FifoScheduler fifo(table, sgi, 8);
  Task task;
  task.id = TaskId(1);
  task.app = catalogue.find("cpi");
  task.deadline = 1e6;
  EXPECT_THROW((void)fifo.place(task, idle, 0.0, 0), AssertionError);
}

// --- LocalScheduler-level behaviours -------------------------------------

struct LocalAvailabilityFixture : ::testing::Test {
  sim::Engine engine;
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  pace::PredictionTable table{
      catalogue, {pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000)},
      8};
  std::vector<CompletionRecord> completions;

  std::unique_ptr<LocalScheduler> make(double prediction_error = 0.0) {
    LocalScheduler::Config config;
    config.resource_id = AgentId(1);
    config.resource =
        pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
    config.node_count = 8;
    config.seed = 11;
    config.prediction_error = prediction_error;
    return std::make_unique<LocalScheduler>(
        engine, table, config,
        [this](const CompletionRecord& r) { completions.push_back(r); });
  }

  Task make_task(std::uint64_t id, const char* app = "fft") {
    Task task;
    task.id = TaskId(id);
    task.app = catalogue.find(app);
    task.arrival = engine.now();
    task.deadline = engine.now() + 1e6;
    return task;
  }
};

TEST_F(LocalAvailabilityFixture, CancelRemovesPendingTask) {
  auto scheduler = make();
  // Fill the machine first so later tasks stay pending.
  for (std::uint64_t i = 1; i <= 12; ++i) {
    scheduler->submit(make_task(i));
  }
  // Before the zero-delay reschedule fires, everything is still pending.
  EXPECT_TRUE(scheduler->cancel(TaskId(12)));
  EXPECT_FALSE(scheduler->cancel(TaskId(12)));  // already gone
  EXPECT_FALSE(scheduler->cancel(TaskId(99)));  // never submitted
  engine.run();
  EXPECT_EQ(completions.size(), 11u);
  for (const auto& record : completions) {
    EXPECT_NE(record.task, TaskId(12));
  }
}

TEST_F(LocalAvailabilityFixture, CancelCannotRecallRunningTask) {
  auto scheduler = make();
  scheduler->submit(make_task(1));
  // Run the reschedule so the task starts.
  while (engine.next_event_time() <= 0.0 && engine.step()) {
  }
  EXPECT_EQ(scheduler->running_count(), 1);
  EXPECT_FALSE(scheduler->cancel(TaskId(1)));
  engine.run();
  EXPECT_EQ(completions.size(), 1u);
}

TEST_F(LocalAvailabilityFixture, NodeLossShrinksAllocations) {
  auto scheduler = make();
  for (int node = 4; node < 8; ++node) {
    scheduler->set_node_available(node, false);
  }
  scheduler->submit(make_task(1, "closure"));
  engine.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].mask & 0xF0u, 0u);
}

TEST_F(LocalAvailabilityFixture, FreetimeIgnoresDownNodes) {
  auto scheduler = make();
  scheduler->submit(make_task(1, "sweep3d"));
  engine.run_until(1.0);
  const SimTime busy_freetime = scheduler->freetime();
  EXPECT_GT(busy_freetime, 1.0);
  // A down node must not push freetime to the virtual horizon.
  scheduler->set_node_available(7, false);
  EXPECT_LT(scheduler->freetime(),
            ScheduleBuilder::kUnavailableHorizon);
}

TEST_F(LocalAvailabilityFixture, PredictionErrorPerturbsActualTimes) {
  auto scheduler = make(0.5);
  for (std::uint64_t i = 1; i <= 6; ++i) scheduler->submit(make_task(i));
  engine.run();
  ASSERT_EQ(completions.size(), 6u);
  int deviated = 0;
  for (const auto& record : completions) {
    const auto model = catalogue.find(record.app_name);
    const double predicted =
        model->reference_time(node_count(record.mask));
    const double actual = record.end - record.start;
    EXPECT_GE(actual, predicted * 0.5 - 1e-9);
    EXPECT_LE(actual, predicted * 1.5 + 1e-9);
    if (std::abs(actual - predicted) > 1e-9) ++deviated;
  }
  EXPECT_GT(deviated, 0);
}

TEST_F(LocalAvailabilityFixture, PredictionErrorIsDeterministicPerTask) {
  auto run_once = [this]() {
    sim::Engine local_engine;
    LocalScheduler::Config config;
    config.resource_id = AgentId(1);
    config.resource =
        pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
    config.node_count = 8;
    config.seed = 11;
    config.prediction_error = 0.3;
    std::vector<double> durations;
    LocalScheduler scheduler(local_engine, table, config,
                             [&](const CompletionRecord& r) {
                               durations.push_back(r.end - r.start);
                             });
    for (std::uint64_t i = 1; i <= 5; ++i) {
      Task task;
      task.id = TaskId(i);
      task.app = catalogue.find("jacobi");
      task.deadline = 1e6;
      scheduler.submit(std::move(task));
    }
    local_engine.run();
    return durations;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(LocalAvailabilityFixture, ZeroPredictionErrorIsExact) {
  auto scheduler = make(0.0);
  scheduler->submit(make_task(1, "closure"));
  engine.run();
  ASSERT_EQ(completions.size(), 1u);
  const double actual = completions[0].end - completions[0].start;
  EXPECT_DOUBLE_EQ(actual, catalogue.find("closure")->reference_time(
                               node_count(completions[0].mask)));
}

}  // namespace
}  // namespace gridlb::sched
