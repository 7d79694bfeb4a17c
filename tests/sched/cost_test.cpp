#include "sched/cost.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"

namespace gridlb::sched {
namespace {

DecodedSchedule schedule_with(double makespan, double weighted_idle,
                              double penalty, double flowtime = 0.0) {
  DecodedSchedule s;
  s.makespan = makespan;
  s.weighted_idle = weighted_idle;
  s.contract_penalty = penalty;
  s.mean_completion = flowtime;
  return s;
}

TEST(CostValue, WeightedAverage) {
  const CostWeights weights{2.0, 1.0, 1.0, 0.0};
  // (2·10 + 1·4 + 1·6 + 0) / 4 = 7.5
  EXPECT_DOUBLE_EQ(cost_value(schedule_with(10, 4, 6), weights), 7.5);
}

TEST(CostValue, LiteralEq8WithZeroFlowtime) {
  const CostWeights weights{1.0, 1.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(cost_value(schedule_with(3, 6, 9), weights), 6.0);
}

TEST(CostValue, FlowtimeTermCounts) {
  const CostWeights weights{0.0, 0.0, 0.0, 2.0};
  EXPECT_DOUBLE_EQ(cost_value(schedule_with(100, 100, 100, 7), weights), 7.0);
}

TEST(CostValue, ZeroScheduleCostsZero) {
  EXPECT_DOUBLE_EQ(cost_value(schedule_with(0, 0, 0), CostWeights{}), 0.0);
}

TEST(CostValue, MonotoneInEachMetric) {
  const CostWeights weights{};
  const double base = cost_value(schedule_with(10, 10, 10, 10), weights);
  EXPECT_GT(cost_value(schedule_with(11, 10, 10, 10), weights), base);
  EXPECT_GT(cost_value(schedule_with(10, 11, 10, 10), weights), base);
  EXPECT_GT(cost_value(schedule_with(10, 10, 11, 10), weights), base);
  EXPECT_GT(cost_value(schedule_with(10, 10, 10, 11), weights), base);
}

TEST(CostValue, RejectsNegativeOrAllZeroWeights) {
  EXPECT_THROW((void)cost_value(schedule_with(1, 1, 1),
                                CostWeights{-1, 1, 1, 1}),
               AssertionError);
  EXPECT_THROW((void)cost_value(schedule_with(1, 1, 1),
                                CostWeights{0, 0, 0, 0}),
               AssertionError);
}

TEST(Fitness, MapsBestToOneWorstToZero) {
  const std::vector<double> costs = {5.0, 1.0, 9.0};
  std::vector<double> fitness;
  fitness_values(costs, fitness);
  EXPECT_DOUBLE_EQ(fitness[1], 1.0);  // best (lowest cost)
  EXPECT_DOUBLE_EQ(fitness[2], 0.0);  // worst
  EXPECT_DOUBLE_EQ(fitness[0], 0.5);
}

TEST(Fitness, DegeneratePopulationIsUniform) {
  const std::vector<double> costs = {4.0, 4.0, 4.0};
  std::vector<double> fitness;
  fitness_values(costs, fitness);
  for (const double f : fitness) EXPECT_DOUBLE_EQ(f, 1.0);
}

TEST(Fitness, EmptyInput) {
  std::vector<double> fitness = {0.5, 0.25};  // stale contents are dropped
  fitness_values(std::vector<double>{}, fitness);
  EXPECT_TRUE(fitness.empty());
}

TEST(Fitness, SingleIndividual) {
  std::vector<double> fitness;
  fitness_values(std::vector<double>{3.0}, fitness);
  ASSERT_EQ(fitness.size(), 1u);
  EXPECT_DOUBLE_EQ(fitness[0], 1.0);
}

TEST(Fitness, OrderPreserving) {
  // Lower cost must never map to lower fitness.
  const std::vector<double> costs = {3.0, 1.0, 2.0, 5.0, 4.0};
  std::vector<double> fitness;
  fitness_values(costs, fitness);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    for (std::size_t j = 0; j < costs.size(); ++j) {
      if (costs[i] < costs[j]) {
        EXPECT_GT(fitness[i], fitness[j]);
      }
    }
  }
}

TEST(Fitness, InRange) {
  const std::vector<double> costs = {10.5, -3.0, 0.0, 7.7};
  std::vector<double> fitness;
  fitness_values(costs, fitness);
  for (const double f : fitness) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

}  // namespace
}  // namespace gridlb::sched
