// Queueing behaviour of the local scheduler (waits, queue length), read
// from its completion records and its pending count.
#include <gtest/gtest.h>

#include <algorithm>

#include "pace/paper_applications.hpp"
#include "sched/local_scheduler.hpp"

namespace gridlb::sched {
namespace {

struct QueueStatsFixture : ::testing::Test {
  sim::Engine engine;
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  pace::PredictionTable table{
      catalogue, {pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000)},
      16};
  std::vector<CompletionRecord> completions;

  std::unique_ptr<LocalScheduler> make(SchedulerPolicy policy) {
    LocalScheduler::Config config;
    config.resource_id = AgentId(1);
    config.resource =
        pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
    config.node_count = 4;
    config.policy = policy;
    config.seed = 9;
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

TEST_F(QueueStatsFixture, FreshSchedulerHasZeroStats) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  engine.run();
  EXPECT_TRUE(completions.empty());
  EXPECT_EQ(scheduler->pending_count(), 0);
}

TEST_F(QueueStatsFixture, SingleImmediateTaskHasNoWait) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  scheduler->submit(make_task(1));
  EXPECT_EQ(scheduler->pending_count(), 1);
  engine.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_DOUBLE_EQ(completions[0].start, completions[0].submitted);
  EXPECT_GT(completions[0].end, completions[0].start);
}

TEST_F(QueueStatsFixture, QueuedTasksAccumulateWait) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  // Ten fft tasks on 4 nodes: most must wait.
  for (std::uint64_t i = 1; i <= 10; ++i) scheduler->submit(make_task(i));
  EXPECT_EQ(scheduler->pending_count(), 10);
  engine.run();
  ASSERT_EQ(completions.size(), 10u);
  double max_wait = 0.0;
  for (const auto& record : completions) {
    EXPECT_GE(record.start, record.submitted);
    max_wait = std::max(max_wait, record.start - record.submitted);
  }
  EXPECT_GT(max_wait, 0.0);
}

TEST_F(QueueStatsFixture, FifoCountsWaitsToo) {
  const auto scheduler = make(SchedulerPolicy::kFifo);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    scheduler->submit(make_task(i));
    // FIFO commits at submission, so no task stays pending.
    EXPECT_EQ(scheduler->pending_count(), 0);
  }
  engine.run();
  ASSERT_EQ(completions.size(), 6u);
  double max_wait = 0.0;
  for (const auto& record : completions) {
    max_wait = std::max(max_wait, record.start - record.submitted);
  }
  EXPECT_GT(max_wait, 0.0);
}

TEST_F(QueueStatsFixture, CancelledTasksNeverStart) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  for (std::uint64_t i = 1; i <= 8; ++i) scheduler->submit(make_task(i));
  EXPECT_TRUE(scheduler->cancel(TaskId(8)));
  engine.run();
  ASSERT_EQ(completions.size(), 7u);
  for (const auto& record : completions) EXPECT_NE(record.task, TaskId(8));
}

}  // namespace
}  // namespace gridlb::sched
