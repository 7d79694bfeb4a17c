// Queueing statistics of the local scheduler (wait times, peak queue).
#include <gtest/gtest.h>

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
  const QueueStats& stats = scheduler->queue_stats();
  EXPECT_EQ(stats.started, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_wait(), 0.0);
  EXPECT_EQ(stats.peak_queue_length, 0);
}

TEST_F(QueueStatsFixture, SingleImmediateTaskHasNoWait) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  scheduler->submit(make_task(1));
  engine.run();
  const QueueStats& stats = scheduler->queue_stats();
  EXPECT_EQ(stats.started, 1u);
  EXPECT_DOUBLE_EQ(stats.total_wait, 0.0);
  EXPECT_GT(stats.total_execution, 0.0);
  EXPECT_EQ(stats.peak_queue_length, 1);
}

TEST_F(QueueStatsFixture, QueuedTasksAccumulateWait) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  // Ten fft tasks on 4 nodes: most must wait.
  for (std::uint64_t i = 1; i <= 10; ++i) scheduler->submit(make_task(i));
  engine.run();
  const QueueStats& stats = scheduler->queue_stats();
  EXPECT_EQ(stats.started, 10u);
  EXPECT_GT(stats.total_wait, 0.0);
  EXPECT_GT(stats.max_wait, stats.mean_wait() - 1e-9);
  EXPECT_EQ(stats.peak_queue_length, 10);
}

TEST_F(QueueStatsFixture, FifoCountsWaitsToo) {
  const auto scheduler = make(SchedulerPolicy::kFifo);
  for (std::uint64_t i = 1; i <= 6; ++i) scheduler->submit(make_task(i));
  engine.run();
  const QueueStats& stats = scheduler->queue_stats();
  EXPECT_EQ(stats.started, 6u);
  EXPECT_GT(stats.max_wait, 0.0);
  // FIFO commits at submission, so the queue never exceeds one pending.
  EXPECT_EQ(stats.peak_queue_length, 1);
}

TEST_F(QueueStatsFixture, ExecutionTimeMatchesRecords) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  for (std::uint64_t i = 1; i <= 5; ++i) scheduler->submit(make_task(i));
  engine.run();
  double total = 0.0;
  for (const auto& record : completions) total += record.end - record.start;
  EXPECT_NEAR(scheduler->queue_stats().total_execution, total, 1e-9);
}

TEST_F(QueueStatsFixture, CancelledTasksNeverStart) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  for (std::uint64_t i = 1; i <= 8; ++i) scheduler->submit(make_task(i));
  EXPECT_TRUE(scheduler->cancel(TaskId(8)));
  engine.run();
  EXPECT_EQ(scheduler->queue_stats().started, 7u);
}

}  // namespace
}  // namespace gridlb::sched
