#include "sched/local_scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/assert.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::sched {
namespace {

struct LocalSchedFixture : ::testing::Test {
  sim::Engine engine;
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  pace::PredictionTable table{
      catalogue,
      {pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000),
       pace::ResourceModel::of(pace::HardwareType::kSunSparcStation2)},
      16};
  std::vector<CompletionRecord> completions;
  std::uint64_t next_id = 1;

  LocalScheduler::Config config(SchedulerPolicy policy) {
    LocalScheduler::Config c;
    c.resource_id = AgentId(1);
    c.resource = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
    c.node_count = 16;
    c.policy = policy;
    c.seed = 7;
    return c;
  }

  std::unique_ptr<LocalScheduler> make(SchedulerPolicy policy) {
    return std::make_unique<LocalScheduler>(
        engine, table, config(policy),
        [this](const CompletionRecord& r) { completions.push_back(r); });
  }

  Task make_task(const char* app, double deadline_offset = 1e6) {
    Task task;
    task.id = TaskId(next_id++);
    task.app = catalogue.find(app);
    task.arrival = engine.now();
    task.deadline = engine.now() + deadline_offset;
    return task;
  }
};

TEST_F(LocalSchedFixture, PredictionErrorMustLieInUnitInterval) {
  // At e >= 1 the factor 1 + e(2u - 1) can reach zero or go negative and
  // a task would end before it starts; a negative e is meaningless.
  for (const double error : {-0.1, 1.0, 5.0, std::nan("")}) {
    LocalScheduler::Config c = config(SchedulerPolicy::kGa);
    c.prediction_error = error;
    EXPECT_THROW(c.validate(), AssertionError) << error;
    EXPECT_THROW(LocalScheduler(engine, table, c, [](const auto&) {}),
                 AssertionError)
        << error;
  }
  LocalScheduler::Config c = config(SchedulerPolicy::kGa);
  c.prediction_error = 0.99;
  EXPECT_NO_THROW(c.validate());
}

TEST_F(LocalSchedFixture, FreshSchedulerIsIdle) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  EXPECT_EQ(scheduler->pending_count(), 0);
  EXPECT_EQ(scheduler->running_count(), 0);
  EXPECT_DOUBLE_EQ(scheduler->freetime(), 0.0);
}

TEST_F(LocalSchedFixture, SupportsDefaultEnvironments) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  EXPECT_TRUE(scheduler->supports("mpi"));
  EXPECT_TRUE(scheduler->supports("pvm"));
  EXPECT_TRUE(scheduler->supports("test"));
  EXPECT_FALSE(scheduler->supports("cuda"));
}

TEST_F(LocalSchedFixture, RejectsUnsupportedEnvironment) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  Task task = make_task("fft");
  task.environment = "cuda";
  EXPECT_THROW(scheduler->submit(std::move(task)), AssertionError);
}

TEST_F(LocalSchedFixture, RejectsTaskWithoutModel) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  Task task = make_task("fft");
  task.app = nullptr;
  EXPECT_THROW(scheduler->submit(std::move(task)), AssertionError);
}

TEST_F(LocalSchedFixture, GaExecutesSingleTaskAtPredictedTime) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  scheduler->submit(make_task("closure", 100.0));
  engine.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_DOUBLE_EQ(completions[0].start, 0.0);
  // The GA chose some allocation; completion must match its Table 1 time.
  const int width = node_count(completions[0].mask);
  EXPECT_DOUBLE_EQ(completions[0].end,
                   catalogue.find("closure")->reference_time(width));
  EXPECT_EQ(scheduler->running_count(), 0);
}

TEST_F(LocalSchedFixture, FifoExecutesAllTasks) {
  const auto scheduler = make(SchedulerPolicy::kFifo);
  for (int i = 0; i < 10; ++i) scheduler->submit(make_task("fft"));
  engine.run();
  EXPECT_EQ(completions.size(), 10u);
  EXPECT_GT(scheduler->fifo_subsets_tried(), 0u);
  EXPECT_EQ(scheduler->ga_decodes(), 0u);
}

TEST_F(LocalSchedFixture, GaExecutesAllTasksAcrossArrivals) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  for (int i = 0; i < 12; ++i) {
    engine.schedule_at(static_cast<double>(i), [this, &scheduler]() {
      scheduler->submit(make_task("jacobi", 400.0));
    });
  }
  engine.run();
  EXPECT_EQ(completions.size(), 12u);
  EXPECT_GT(scheduler->ga_decodes(), 0u);
}

TEST_F(LocalSchedFixture, NoNodeRunsTwoTasksAtOnce) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  for (int i = 0; i < 20; ++i) {
    engine.schedule_at(static_cast<double>(i) * 0.5, [this, &scheduler]() {
      scheduler->submit(make_task("memsort", 300.0));
    });
  }
  engine.run();
  ASSERT_EQ(completions.size(), 20u);
  for (int node = 0; node < 16; ++node) {
    std::vector<std::pair<SimTime, SimTime>> intervals;
    for (const auto& record : completions) {
      if ((record.mask >> node) & 1u) {
        intervals.emplace_back(record.start, record.end);
      }
    }
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first + 1e-9, intervals[i - 1].second)
          << "node " << node << " overlaps";
    }
  }
}

TEST_F(LocalSchedFixture, TaskNeverStartsBeforeArrival) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  engine.schedule_at(5.0, [this, &scheduler]() {
    scheduler->submit(make_task("cpi", 100.0));
  });
  engine.run();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_GE(completions[0].start, 5.0);
  EXPECT_DOUBLE_EQ(completions[0].submitted, 5.0);
}

TEST_F(LocalSchedFixture, FreetimeAdvancesWithLoad) {
  const auto scheduler = make(SchedulerPolicy::kFifo);
  scheduler->submit(make_task("sweep3d"));
  // FIFO commits synchronously: freetime reflects the new busy horizon.
  EXPECT_GT(scheduler->freetime(), 0.0);
}

TEST_F(LocalSchedFixture, GaFreetimeReflectsPlanMakespan) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  for (int i = 0; i < 5; ++i) scheduler->submit(make_task("sweep3d", 1e6));
  // Run just the zero-delay reschedule event.
  while (engine.next_event_time() <= 0.0 && engine.step()) {
  }
  EXPECT_GT(scheduler->freetime(), 0.0);
}

TEST_F(LocalSchedFixture, CompletionRecordFieldsAreConsistent) {
  const auto scheduler = make(SchedulerPolicy::kGa);
  scheduler->submit(make_task("improc", 250.0));
  engine.run();
  ASSERT_EQ(completions.size(), 1u);
  const auto& record = completions[0];
  EXPECT_EQ(record.resource, AgentId(1));
  EXPECT_EQ(record.app_name, "improc");
  EXPECT_GT(record.mask, 0u);
  EXPECT_LE(record.start, record.end);
  EXPECT_DOUBLE_EQ(record.deadline, 250.0);
}

TEST_F(LocalSchedFixture, IdenticalRunsAreDeterministic) {
  // Two schedulers with the same seed and workload produce identical
  // completion traces.
  auto run_once = [this]() {
    sim::Engine local_engine;
    std::vector<CompletionRecord> local_completions;
    LocalScheduler scheduler(
        local_engine, table, config(SchedulerPolicy::kGa),
        [&](const CompletionRecord& r) { local_completions.push_back(r); });
    std::uint64_t id = 1;
    for (int i = 0; i < 8; ++i) {
      local_engine.schedule_at(i, [&, i]() {
        Task task;
        task.id = TaskId(id++);
        task.app = catalogue.all()[static_cast<std::size_t>(i) % 7];
        task.arrival = local_engine.now();
        task.deadline = local_engine.now() + 120.0;
        scheduler.submit(std::move(task));
      });
    }
    local_engine.run();
    return local_completions;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].task, second[i].task);
    EXPECT_EQ(first[i].mask, second[i].mask);
    EXPECT_DOUBLE_EQ(first[i].start, second[i].start);
    EXPECT_DOUBLE_EQ(first[i].end, second[i].end);
  }
}

TEST_F(LocalSchedFixture, GaBeatsFifoUnderOverload) {
  // Saturate a slow resource; the GA's mean lateness must not exceed the
  // min-execution FIFO's.
  auto run_policy = [this](SchedulerPolicy policy, FifoObjective objective) {
    sim::Engine local_engine;
    double lateness = 0.0;
    LocalScheduler::Config c = config(policy);
    c.resource =
        pace::ResourceModel::of(pace::HardwareType::kSunSparcStation2);
    c.fifo_objective = objective;
    LocalScheduler scheduler(local_engine, table, c,
                             [&](const CompletionRecord& r) {
                               lateness += std::max(0.0, r.end - r.deadline);
                             });
    std::uint64_t id = 1;
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
      local_engine.schedule_at(i, [&, i]() {
        Task task;
        task.id = TaskId(id++);
        task.app = catalogue.all()[static_cast<std::size_t>(i) % 7];
        const auto domain = task.app->deadline_domain();
        task.arrival = local_engine.now();
        task.deadline = local_engine.now() + (domain.lo + domain.hi) / 2.0;
        scheduler.submit(std::move(task));
      });
    }
    local_engine.run();
    return lateness;
  };
  const double fifo = run_policy(SchedulerPolicy::kFifo,
                                 FifoObjective::kMinExecution);
  const double ga =
      run_policy(SchedulerPolicy::kGa, FifoObjective::kMinExecution);
  EXPECT_LT(ga, fifo);
}

}  // namespace
}  // namespace gridlb::sched
