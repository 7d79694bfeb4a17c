#include "sched/ga_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/assert.hpp"

namespace gridlb::sched {

GaScheduler::GaScheduler(ScheduleBuilder& builder, GaConfig config,
                         std::uint64_t seed)
    : builder_(&builder), config_(config), rng_(seed) {
  GRIDLB_REQUIRE(config_.population_size >= 2, "population must hold >= 2");
  GRIDLB_REQUIRE(config_.generations >= 1, "need at least one generation");
  GRIDLB_REQUIRE(config_.elite >= 0 &&
                     config_.elite < config_.population_size,
                 "elite count must be < population size");
  GRIDLB_REQUIRE(config_.crossover_rate >= 0.0 && config_.crossover_rate <= 1.0,
                 "crossover rate must be in [0,1]");
}

void GaScheduler::sync_population(std::span<const Task> tasks) {
  const int m = static_cast<int>(tasks.size());
  const int nodes = builder_->node_count();

  if (population_.empty()) {
    population_.reserve(static_cast<std::size_t>(config_.population_size));
    for (int k = 0; k < config_.population_size; ++k) {
      population_.push_back(SolutionString::random(m, nodes, rng_));
    }
  } else {
    // Match surviving tasks by id; started/cancelled tasks drop out and
    // fresh arrivals are inserted at random positions.
    std::vector<int> kept(known_tasks_.size(), -1);
    for (std::size_t old_index = 0; old_index < known_tasks_.size();
         ++old_index) {
      for (int new_index = 0; new_index < m; ++new_index) {
        if (tasks[static_cast<std::size_t>(new_index)].id ==
            known_tasks_[old_index]) {
          kept[old_index] = new_index;
          break;
        }
      }
    }
    for (auto& individual : population_) {
      individual.remap_tasks(kept, m, rng_);
    }
  }

  known_tasks_.clear();
  known_tasks_.reserve(tasks.size());
  for (const Task& task : tasks) known_tasks_.push_back(task.id);
}

void GaScheduler::select_parents(std::span<const double> fitness) {
  const int n = static_cast<int>(fitness.size());
  const double total = std::accumulate(fitness.begin(), fitness.end(), 0.0);
  pool_.clear();
  if (total <= 0.0) {
    // All-zero fitness (cannot happen with dynamic scaling, but guard):
    // uniform pool.
    for (int k = 0; k < n; ++k) pool_.push_back(k);
    return;
  }
  fraction_.resize(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const double expected =
        fitness[static_cast<std::size_t>(k)] * static_cast<double>(n) / total;
    const double floor_part = std::floor(expected);
    for (int c = 0; c < static_cast<int>(floor_part); ++c) pool_.push_back(k);
    fraction_[static_cast<std::size_t>(k)] = expected - floor_part;
  }
  // Fill the remainder with Bernoulli draws on the fractional parts.
  while (static_cast<int>(pool_.size()) < n) {
    for (int k = 0; k < n && static_cast<int>(pool_.size()) < n; ++k) {
      if (rng_.chance(fraction_[static_cast<std::size_t>(k)])) {
        pool_.push_back(k);
      }
    }
    // Degenerate fractional mass (all ~0): top up uniformly.
    if (std::accumulate(fraction_.begin(), fraction_.end(), 0.0) < 1e-12) {
      while (static_cast<int>(pool_.size()) < n) {
        pool_.push_back(static_cast<int>(
            rng_.next_below(static_cast<std::uint64_t>(n))));
      }
    }
  }
}

SolutionString GaScheduler::greedy_seed(std::span<const Task> tasks,
                                        std::span<const SimTime> node_free,
                                        SimTime now, NodeMask available,
                                        bool deadline_order,
                                        bool efficient) {
  const int m = static_cast<int>(tasks.size());
  const int nodes = builder_->node_count();
  std::vector<int> order(static_cast<std::size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  if (deadline_order) {
    std::stable_sort(order.begin(), order.end(), [&tasks](int a, int b) {
      return tasks[static_cast<std::size_t>(a)].deadline <
             tasks[static_cast<std::size_t>(b)].deadline;
    });
  }

  std::vector<SimTime> free(node_free.begin(), node_free.end());
  for (auto& f : free) f = std::max(f, now);
  std::vector<int> by_free;
  by_free.reserve(static_cast<std::size_t>(nodes));
  std::vector<NodeMask> mapping(static_cast<std::size_t>(m), 0);

  for (const int t : order) {
    const Task& task = tasks[static_cast<std::size_t>(t)];
    by_free.clear();
    for_each_node(available, [&by_free](int node) { by_free.push_back(node); });
    std::stable_sort(by_free.begin(), by_free.end(),
                     [&free](int a, int b) {
                       return free[static_cast<std::size_t>(a)] <
                              free[static_cast<std::size_t>(b)];
                     });
    const int usable = static_cast<int>(by_free.size());
    // For k nodes the optimal subset is the k earliest-free ones, so the
    // exhaustive 2^n−1 FIFO search reduces to an n-way scan.
    double best_end = std::numeric_limits<double>::infinity();
    int best_k = 1;
    double best_work = std::numeric_limits<double>::infinity();
    bool best_feasible = false;
    for (int k = 1; k <= usable; ++k) {
      const SimTime start =
          free[static_cast<std::size_t>(by_free[static_cast<std::size_t>(
              k - 1)])];
      const double exec = context_.exec_time(t, k);
      ++scratch_.table_reads;
      const SimTime end = start + exec;
      bool better;
      if (efficient) {
        // Narrowest deadline-feasible allocation (min node·seconds);
        // min completion among the infeasible as the fallback.
        const bool feasible = end <= task.deadline;
        const double work = static_cast<double>(k) * exec;
        if (feasible) {
          better = !best_feasible || work < best_work;
        } else {
          better = !best_feasible && end < best_end;
        }
        if (better) {
          best_feasible = feasible;
          best_work = work;
        }
      } else {
        better = end < best_end;
      }
      if (better) {
        best_end = end;
        best_k = k;
      }
    }
    NodeMask mask = 0;
    for (int i = 0; i < best_k; ++i) {
      const int node = by_free[static_cast<std::size_t>(i)];
      mask |= NodeMask{1} << node;
      free[static_cast<std::size_t>(node)] = best_end;
    }
    mapping[static_cast<std::size_t>(t)] = mask;
  }
  return SolutionString(std::move(order), std::move(mapping), nodes);
}

GaResult GaScheduler::optimize(std::span<const Task> tasks,
                               std::span<const SimTime> node_free,
                               SimTime now) {
  return optimize(tasks, node_free, now, full_mask(builder_->node_count()));
}

GaResult GaScheduler::optimize(std::span<const Task> tasks,
                               std::span<const SimTime> node_free,
                               SimTime now, NodeMask available) {
  GRIDLB_REQUIRE(valid_mask(available, builder_->node_count()),
                 "optimize needs at least one available node");
  // Hoist every task's prediction row; everything downstream (greedy
  // seeds included) reads predictions through the context.
  builder_->prepare(context_, tasks, node_free, now, available);
  scratch_.table_reads = 0;
  sync_population(tasks);
  const bool constrained = available != full_mask(builder_->node_count());
  if (constrained) {
    for (auto& individual : population_) individual.constrain(available, rng_);
  }
  if (config_.seed_heuristic && !tasks.empty()) {
    // Greedy seeds go at the tail; the warm-started best individual from
    // the previous invocation lives at the front and must survive.  Four
    // variants: {arrival, EDF} × {fastest, narrowest-feasible}.
    const std::size_t last = population_.size() - 1;
    std::size_t slot = last;
    for (const bool efficient : {false, true}) {
      for (const bool deadline_order : {false, true}) {
        population_[slot] = greedy_seed(tasks, node_free, now, available,
                                        deadline_order, efficient);
        if (slot == 0) break;
        --slot;
      }
    }
  }

  GaResult result;
  if (tasks.empty()) {
    result.best = SolutionString({}, {}, builder_->node_count());
    result.schedule = builder_->decode(context_, result.best, scratch_);
    result.table_reads = scratch_.table_reads;
    total_table_reads_ += result.table_reads;
    return result;
  }

  const int n = config_.population_size;
  costs_.assign(static_cast<std::size_t>(n), 0.0);

  bool have_best = false;
  result.generations.reserve(static_cast<std::size_t>(config_.generations));
  for (int generation = 0; generation < config_.generations; ++generation) {
    // Evaluate every individual, in index order, through one scratch.
    for (int k = 0; k < n; ++k) {
      const auto index = static_cast<std::size_t>(k);
      costs_[index] = cost_value(
          builder_->evaluate(context_, population_[index], scratch_),
          config_.weights);
    }
    result.decodes += static_cast<std::uint64_t>(n);

    // Track the best-ever individual (genome + cost only; the winning
    // schedule is decoded once, after the final generation).
    const auto best_it = std::min_element(costs_.begin(), costs_.end());
    const auto best_index =
        static_cast<std::size_t>(best_it - costs_.begin());
    if (!have_best || *best_it < result.best_cost) {
      have_best = true;
      result.best_cost = *best_it;
      result.best = population_[best_index];
      result.converged_at = generation;
    }
    result.generations.push_back(GaResult::GenerationStat{
        *best_it, std::accumulate(costs_.begin(), costs_.end(), 0.0) /
                      static_cast<double>(n)});
    ++result.generations_run;
    if (generation + 1 == config_.generations) break;

    // Breed the next generation into `next_`, overwriting last
    // generation's individuals in place, then swap it in.
    fitness_values(costs_, fitness_);
    select_parents(fitness_);
    next_.resize(static_cast<std::size_t>(n));
    int slot = 0;
    if (config_.elite > 0) {
      // Elites: the `elite` lowest-cost individuals, unchanged.
      by_cost_.resize(static_cast<std::size_t>(n));
      std::iota(by_cost_.begin(), by_cost_.end(), 0);
      std::partial_sort(by_cost_.begin(),
                        by_cost_.begin() + config_.elite, by_cost_.end(),
                        [this](int a, int b) {
                          return costs_[static_cast<std::size_t>(a)] <
                                 costs_[static_cast<std::size_t>(b)];
                        });
      for (; slot < config_.elite; ++slot) {
        const int src = by_cost_[static_cast<std::size_t>(slot)];
        next_[static_cast<std::size_t>(slot)] =
            population_[static_cast<std::size_t>(src)];
      }
    }
    for (; slot < n; ++slot) {
      const int a = pool_[static_cast<std::size_t>(
          rng_.next_below(pool_.size()))];
      const int b = pool_[static_cast<std::size_t>(
          rng_.next_below(pool_.size()))];
      SolutionString& child = next_[static_cast<std::size_t>(slot)];
      if (rng_.chance(config_.crossover_rate)) {
        population_[static_cast<std::size_t>(a)].crossover(
            population_[static_cast<std::size_t>(b)], rng_, child);
      } else {
        child = population_[static_cast<std::size_t>(a)];
      }
      child.mutate(config_.order_swap_rate, config_.bit_flip_rate, rng_);
      if (constrained) child.constrain(available, rng_);
    }
    population_.swap(next_);
  }

  // The one full decode of the run: placements for the winner only.
  result.schedule = builder_->decode(context_, result.best, scratch_);
  ++result.decodes;
  result.table_reads = scratch_.table_reads;
  total_decodes_ += result.decodes;
  total_table_reads_ += result.table_reads;
  // Keep the best individual alive for the next invocation's warm start.
  population_.front() = result.best;
  return result;
}

}  // namespace gridlb::sched
