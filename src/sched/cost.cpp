#include "sched/cost.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace gridlb::sched {

double cost_value(const ScheduleMetrics& schedule, const CostWeights& weights) {
  GRIDLB_REQUIRE(weights.makespan >= 0.0 && weights.idle >= 0.0 &&
                     weights.deadline >= 0.0 && weights.flowtime >= 0.0,
                 "cost weights must be non-negative");
  const double denominator = weights.makespan + weights.idle +
                             weights.deadline + weights.flowtime;
  GRIDLB_REQUIRE(denominator > 0.0, "at least one cost weight must be set");
  return (weights.makespan * schedule.makespan +
          weights.idle * schedule.weighted_idle +
          weights.deadline * schedule.contract_penalty +
          weights.flowtime * schedule.mean_completion) /
         denominator;
}

void fitness_values(std::span<const double> costs,
                    std::vector<double>& fitness) {
  fitness.assign(costs.size(), 1.0);
  if (costs.empty()) return;
  const auto [min_it, max_it] = std::minmax_element(costs.begin(), costs.end());
  const double lo = *min_it;
  const double hi = *max_it;
  if (hi - lo <= 0.0) return;  // degenerate: uniform fitness
  for (std::size_t k = 0; k < costs.size(); ++k) {
    fitness[k] = (hi - costs[k]) / (hi - lo);
  }
}

}  // namespace gridlb::sched
