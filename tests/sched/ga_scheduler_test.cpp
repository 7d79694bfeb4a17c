#include "sched/ga_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>

#include "common/assert.hpp"
#include "pace/paper_applications.hpp"
#include "sched/fifo_scheduler.hpp"

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

struct GaFixture : ::testing::Test {
  pace::ResourceModel sgi =
      pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  pace::PredictionTable table{catalogue, {sgi}, 16};
  ScheduleBuilder builder{table, sgi, 16};
  std::vector<SimTime> idle = std::vector<SimTime>(16, 0.0);

  std::vector<Task> make_tasks(int count, std::uint64_t seed = 1,
                               double deadline_scale = 1.0) {
    Rng rng(seed);
    std::vector<Task> tasks;
    for (int i = 0; i < count; ++i) {
      Task task;
      task.id = TaskId(static_cast<std::uint64_t>(i) + 1);
      task.app = catalogue.all()[static_cast<std::size_t>(
          rng.next_below(catalogue.size()))];
      const auto domain = task.app->deadline_domain();
      task.deadline = rng.uniform(domain.lo, domain.hi) * deadline_scale;
      tasks.push_back(std::move(task));
    }
    return tasks;
  }
};

TEST_F(GaFixture, ConfigValidation) {
  GaConfig bad;
  bad.population_size = 1;
  EXPECT_THROW(GaScheduler(builder, bad, 1), AssertionError);
  bad = GaConfig{};
  bad.generations = 0;
  EXPECT_THROW(GaScheduler(builder, bad, 1), AssertionError);
  bad = GaConfig{};
  bad.elite = bad.population_size;
  EXPECT_THROW(GaScheduler(builder, bad, 1), AssertionError);
  bad = GaConfig{};
  bad.crossover_rate = 1.5;
  EXPECT_THROW(GaScheduler(builder, bad, 1), AssertionError);
}

TEST_F(GaFixture, EmptyTaskSetYieldsEmptySchedule) {
  GaScheduler scheduler(builder, GaConfig{}, 1);
  const auto result = scheduler.optimize({}, idle, 0.0);
  EXPECT_EQ(result.best.task_count(), 0);
  EXPECT_EQ(result.schedule.makespan, 0.0);
}

TEST_F(GaFixture, ResultIsValidAndDecodesConsistently) {
  GaScheduler scheduler(builder, GaConfig{}, 2);
  const auto tasks = make_tasks(10);
  const auto result = scheduler.optimize(tasks, idle, 0.0);
  EXPECT_TRUE(result.best.valid());
  EXPECT_EQ(result.best.task_count(), 10);
  const auto redecoded =
      prepare_and_decode(builder, tasks, result.best, idle, 0.0);
  EXPECT_DOUBLE_EQ(redecoded.makespan, result.schedule.makespan);
  EXPECT_DOUBLE_EQ(cost_value(redecoded, scheduler.config().weights),
                   result.best_cost);
}

TEST_F(GaFixture, DeterministicForFixedSeed) {
  const auto tasks = make_tasks(8);
  GaScheduler a(builder, GaConfig{}, 42);
  GaScheduler b(builder, GaConfig{}, 42);
  const auto result_a = a.optimize(tasks, idle, 0.0);
  const auto result_b = b.optimize(tasks, idle, 0.0);
  EXPECT_EQ(result_a.best, result_b.best);
  EXPECT_DOUBLE_EQ(result_a.best_cost, result_b.best_cost);
}

// Two schedulers with the same seed, run side by side on the same inputs,
// must agree bit for bit.  Both read the one shared prediction table,
// and re-invocations consume the GA's random stream in sync_population
// (remap + fresh arrivals) and in the mask constraint.
struct ParallelGaFixture : GaFixture {
  static void expect_identical(const GaResult& x, const GaResult& y) {
    EXPECT_EQ(x.best, y.best);
    EXPECT_EQ(x.best_cost, y.best_cost);  // bit-for-bit
    EXPECT_EQ(x.generations_run, y.generations_run);
    EXPECT_EQ(x.decodes, y.decodes);
    EXPECT_EQ(x.table_reads, y.table_reads);
    ASSERT_EQ(x.schedule.placements.size(), y.schedule.placements.size());
    for (std::size_t i = 0; i < x.schedule.placements.size(); ++i) {
      EXPECT_EQ(x.schedule.placements[i].start,
                y.schedule.placements[i].start);
      EXPECT_EQ(x.schedule.placements[i].end, y.schedule.placements[i].end);
      EXPECT_EQ(x.schedule.placements[i].mask, y.schedule.placements[i].mask);
    }
    EXPECT_EQ(x.schedule.makespan, y.schedule.makespan);
    EXPECT_EQ(x.schedule.weighted_idle, y.schedule.weighted_idle);
    EXPECT_EQ(x.schedule.contract_penalty, y.schedule.contract_penalty);
  }
};

TEST_F(ParallelGaFixture, DeterminismHoldsAcrossWarmStartedInvocations) {
  GaConfig config;
  config.generations = 10;
  GaScheduler a(builder, config, 7);
  GaScheduler b(builder, config, 7);

  auto tasks = make_tasks(10);
  expect_identical(a.optimize(tasks, idle, 0.0), b.optimize(tasks, idle, 0.0));

  // Drop the first two tasks and add three fresh arrivals.
  tasks.erase(tasks.begin(), tasks.begin() + 2);
  auto arrivals = make_tasks(3, 99);
  for (auto& task : arrivals) {
    task.id = TaskId(task.id.value() + 100);
    tasks.push_back(task);
  }
  expect_identical(a.optimize(tasks, idle, 50.0),
                   b.optimize(tasks, idle, 50.0));
}

TEST_F(ParallelGaFixture, DeterminismHoldsUnderAvailabilityMask) {
  const auto tasks = make_tasks(8);
  const NodeMask available = 0x00FF;  // half the resource is down
  GaScheduler a(builder, GaConfig{}, 5);
  GaScheduler b(builder, GaConfig{}, 5);
  expect_identical(a.optimize(tasks, idle, 0.0, available),
                   b.optimize(tasks, idle, 0.0, available));
}

TEST_F(GaFixture, MoreGenerationsNeverWorse) {
  const auto tasks = make_tasks(12);
  GaConfig few;
  few.generations = 2;
  few.seed_heuristic = false;
  GaConfig many = few;
  many.generations = 80;
  const double cost_few =
      GaScheduler(builder, few, 7).optimize(tasks, idle, 0.0).best_cost;
  const double cost_many =
      GaScheduler(builder, many, 7).optimize(tasks, idle, 0.0).best_cost;
  EXPECT_LE(cost_many, cost_few);
}

TEST_F(GaFixture, BeatsRandomSolutions) {
  const auto tasks = make_tasks(12);
  GaConfig config;
  config.generations = 60;
  GaScheduler scheduler(builder, config, 3);
  const auto result = scheduler.optimize(tasks, idle, 0.0);

  Rng rng(99);
  double best_random = 1e300;
  for (int i = 0; i < 200; ++i) {
    const auto random = SolutionString::random(12, 16, rng);
    const auto decoded = prepare_and_decode(builder, tasks, random, idle, 0.0);
    best_random = std::min(best_random,
                           cost_value(decoded, scheduler.config().weights));
  }
  EXPECT_LT(result.best_cost, best_random);
}

TEST_F(GaFixture, GaCostNeverExceedsGreedyListScheduling) {
  // A greedy arrival-order list schedule (FIFO with the min-completion
  // objective) is seeded into the population, so the GA's best cost can
  // never exceed the greedy schedule's cost.
  const auto tasks = make_tasks(15);
  GaConfig config;
  config.generations = 1;  // no evolution: seeds alone must suffice
  GaScheduler scheduler(builder, config, 5);
  const auto result = scheduler.optimize(tasks, idle, 0.0);

  // Reconstruct the greedy schedule as a solution string and cost it.
  FifoScheduler fifo(table, sgi, 16, FifoObjective::kMinCompletion);
  std::vector<SimTime> free = idle;
  std::vector<int> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<NodeMask> mapping(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto placement = fifo.place(tasks[t], free, 0.0);
    mapping[t] = placement.mask;
    for_each_node(placement.mask, [&](int node) {
      free[static_cast<std::size_t>(node)] = placement.end;
    });
  }
  const SolutionString greedy(std::move(order), std::move(mapping), 16);
  const auto greedy_decoded =
      prepare_and_decode(builder, tasks, greedy, idle, 0.0);
  const double greedy_cost =
      cost_value(greedy_decoded, scheduler.config().weights);
  EXPECT_LE(result.best_cost, greedy_cost + 1e-9);
}

TEST_F(GaFixture, ConvergesTowardMeetingDeadlines) {
  // Generous deadlines: a reasonable schedule meets all of them.
  auto tasks = make_tasks(8);
  for (auto& task : tasks) task.deadline = 500.0;
  GaConfig config;
  config.generations = 60;
  GaScheduler scheduler(builder, config, 11);
  const auto result = scheduler.optimize(tasks, idle, 0.0);
  EXPECT_EQ(result.schedule.deadline_misses, 0);
}

TEST_F(GaFixture, WarmStartAbsorbsTaskChanges) {
  GaScheduler scheduler(builder, GaConfig{}, 13);
  auto tasks = make_tasks(10);
  const auto first = scheduler.optimize(tasks, idle, 0.0);
  EXPECT_EQ(first.best.task_count(), 10);

  // Two tasks start executing (drop), three new arrive.
  tasks.erase(tasks.begin(), tasks.begin() + 2);
  for (std::uint64_t i = 0; i < 3; ++i) {
    Task task;
    task.id = TaskId(100 + i);
    task.app = catalogue.find("cpi");
    task.deadline = 60.0;
    tasks.push_back(std::move(task));
  }
  const auto second = scheduler.optimize(tasks, idle, 10.0);
  EXPECT_TRUE(second.best.valid());
  EXPECT_EQ(second.best.task_count(), 11);
}

TEST_F(GaFixture, TracksDecodeBudget) {
  GaConfig config;
  config.population_size = 10;
  config.generations = 5;
  GaScheduler scheduler(builder, config, 17);
  const auto result = scheduler.optimize(make_tasks(5), idle, 0.0);
  // Every individual of every generation is evaluated, and the winner
  // costs one extra full decode.
  EXPECT_EQ(result.decodes, 51u);
  EXPECT_EQ(result.generations_run, 5);
  EXPECT_EQ(scheduler.total_decodes(), result.decodes);
  // Each evaluation reads one prediction per task; each of the four greedy
  // seeds reads every width 1..16 for every task.
  EXPECT_EQ(result.table_reads, result.decodes * 5 + 4 * 5 * 16);
  EXPECT_EQ(scheduler.total_table_reads(), result.table_reads);
}

TEST_F(GaFixture, DecodesEveryIndividualEveryGeneration) {
  // decodes == population × generations + 1 on every non-empty call:
  // first and warm-started runs, a changed task set and a masked one.
  GaConfig config;
  config.population_size = 12;
  config.generations = 8;
  config.elite = 2;
  GaScheduler scheduler(builder, config, 23);
  const std::uint64_t per_call =
      static_cast<std::uint64_t>(config.population_size) *
          static_cast<std::uint64_t>(config.generations) +
      1u;
  auto tasks = make_tasks(6);
  std::uint64_t total = 0;
  for (int call = 0; call < 4; ++call) {
    const NodeMask available =
        call == 3 ? NodeMask{0x00FF} : full_mask(16);
    const auto result = scheduler.optimize(
        tasks, idle, 10.0 * static_cast<double>(call), available);
    EXPECT_EQ(result.decodes, per_call) << "call " << call;
    total += result.decodes;
    tasks.pop_back();
  }
  EXPECT_EQ(scheduler.total_decodes(), total);
  // An empty task set decodes the empty winner only.
  EXPECT_EQ(scheduler.optimize({}, idle, 50.0).decodes, 0u);
}

TEST_F(GaFixture, WarmStartSeesNewNodeFreeTimes) {
  // Same task set, different node availability: the warm-started second
  // run must cost its individuals against the new free times (identical
  // genotypes decode differently when the nodes' free times move).
  GaConfig config;
  config.population_size = 8;
  config.generations = 3;
  GaScheduler scheduler(builder, config, 29);
  const auto tasks = make_tasks(5);
  const auto early = scheduler.optimize(tasks, idle, 0.0);
  const std::vector<SimTime> busy(16, 50.0);
  const auto late = scheduler.optimize(tasks, busy, 0.0);
  // Every placement in the second run starts at or after the nodes come
  // free; costs carried over from the first run would start before 50.
  for (const auto& placement : late.schedule.placements) {
    EXPECT_GE(placement.start, 50.0);
  }
  EXPECT_GE(late.best_cost, early.best_cost);
}

TEST_F(GaFixture, RespectsBusyNodes) {
  // All nodes busy until t=100: nothing can complete before then.
  const std::vector<SimTime> busy(16, 100.0);
  GaScheduler scheduler(builder, GaConfig{}, 19);
  const auto result = scheduler.optimize(make_tasks(4), busy, 0.0);
  for (const auto& placement : result.schedule.placements) {
    EXPECT_GE(placement.start, 100.0);
  }
}

TEST_F(GaFixture, SingleTaskGetsEfficientAllocation) {
  // One cpi task, tight deadline: the GA should find a wide allocation
  // close to the 12-processor optimum (2 s on the reference platform).
  std::vector<Task> tasks;
  Task task;
  task.id = TaskId(1);
  task.app = catalogue.find("cpi");
  task.deadline = 5.0;
  tasks.push_back(std::move(task));
  GaConfig config;
  config.generations = 40;
  GaScheduler scheduler(builder, config, 23);
  const auto result = scheduler.optimize(tasks, idle, 0.0);
  EXPECT_LE(result.schedule.placements[0].end, 5.0);
}

// Property: across seeds, optimize() output is always structurally sound.
class GaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaProperty, AlwaysValidAndPenaltyConsistent) {
  const auto ultra5 = pace::ResourceModel::of(pace::HardwareType::kSunUltra5);
  const auto catalogue = pace::paper_catalogue();
  const pace::PredictionTable table(catalogue, {ultra5}, 8);
  ScheduleBuilder builder(table, ultra5, 8);

  Rng rng(GetParam());
  std::vector<Task> tasks;
  const auto count = 1 + rng.next_below(20);
  for (std::uint64_t i = 0; i < count; ++i) {
    Task task;
    task.id = TaskId(i);
    task.app = catalogue.all()[static_cast<std::size_t>(
        rng.next_below(catalogue.size()))];
    task.deadline = rng.uniform(0.0, 400.0);
    tasks.push_back(std::move(task));
  }
  GaConfig config;
  config.population_size = 20;
  config.generations = 10;
  GaScheduler scheduler(builder, config, GetParam() * 7);
  std::vector<SimTime> free(8, 0.0);
  const auto result = scheduler.optimize(tasks, free, 0.0);
  ASSERT_TRUE(result.best.valid());
  double penalty = 0.0;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    penalty += std::max(0.0, result.schedule.placements[t].end -
                                 tasks[t].deadline);
  }
  EXPECT_NEAR(penalty, result.schedule.contract_penalty, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace gridlb::sched
