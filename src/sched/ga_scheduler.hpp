// The genetic-algorithm task scheduler (paper §2.1).
//
// A fixed-size population of two-part solution strings evolves under
// stochastic remainder selection, the specialised two-part crossover and
// mutation operators, and the combined cost function of eq. 8 normalised
// by dynamic scaling (eq. 9).  The population persists across invocations:
// when the task set changes between events, surviving tasks keep their
// evolved ordering and allocations and new arrivals are inserted randomly,
// so the algorithm "is able to absorb system changes such as the addition
// or deletion of tasks".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sched/cost.hpp"
#include "sched/schedule_builder.hpp"

namespace gridlb::sched {

struct GaConfig {
  int population_size = 50;  ///< fixed population size (paper: 50)
  int generations = 25;      ///< generations evolved per invocation
  double crossover_rate = 0.8;
  double order_swap_rate = 0.25;  ///< P(transposition in the ordering part)
  double bit_flip_rate = 0.02;    ///< per-bit flip rate in the mapping part
  int elite = 1;  ///< individuals carried over unchanged each generation
  /// Seed the population each invocation with four greedy list-scheduling
  /// individuals (fewer if the population is smaller): {arrival order,
  /// earliest deadline first} × {earliest completion on the k earliest-free
  /// nodes, narrowest deadline-feasible allocation}.  They replace the
  /// tail of the population, so the warm-started best individual at the
  /// front survives.  None of them is the FIFO baseline's schedule: FIFO's
  /// default objective is min-execution, and even min-completion FIFO can
  /// pick other nodes when free times tie.
  bool seed_heuristic = true;
  CostWeights weights;
};

struct GaResult {
  SolutionString best;
  DecodedSchedule schedule;   ///< decode of `best`
  double best_cost = 0.0;
  int generations_run = 0;
  /// Schedule evaluations performed this invocation: every individual of
  /// every generation, plus the full decode of the winner —
  /// `population × generations + 1` for a non-empty task set.
  std::uint64_t decodes = 0;
  /// Prediction-table lookups this invocation (one per task decoded or
  /// per processor count a greedy seed tries).
  std::uint64_t table_reads = 0;
  /// Per-generation convergence curve (observability; filled on every
  /// invocation — a handful of doubles, and gathering it consumes no
  /// randomness, so results are identical whether or not anyone looks).
  struct GenerationStat {
    double best_cost = 0.0;  ///< best individual this generation
    double mean_cost = 0.0;  ///< population mean this generation
  };
  std::vector<GenerationStat> generations;
  /// Generation index (0-based) at which the best-ever cost last
  /// improved — the "generations to converge" of the run.
  int converged_at = 0;
};

class GaScheduler {
 public:
  GaScheduler(ScheduleBuilder& builder, GaConfig config, std::uint64_t seed);

  /// Evolves the (persistent) population for `config.generations`
  /// generations over the given pending tasks and returns the best
  /// schedule found.  `node_free` gives each node's earliest availability.
  GaResult optimize(std::span<const Task> tasks,
                    std::span<const SimTime> node_free, SimTime now);

  /// As above with only the nodes in `available` usable (resource-monitor
  /// view); every individual is constrained to the available set before
  /// evolution, which is how the GA absorbs host departures and returns.
  GaResult optimize(std::span<const Task> tasks,
                    std::span<const SimTime> node_free, SimTime now,
                    NodeMask available);

  [[nodiscard]] const GaConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t total_decodes() const { return total_decodes_; }
  [[nodiscard]] std::uint64_t total_table_reads() const {
    return total_table_reads_;
  }

 private:
  /// Aligns the persistent population with the new task set (matching by
  /// TaskId), reseeding from scratch only on the first call.
  void sync_population(std::span<const Task> tasks);

  /// Greedy list-scheduling individual: tasks in arrival or deadline
  /// order, each allocated a subset of the earliest-free nodes.  With
  /// `efficient` false the subset minimises the task's own completion
  /// (always the widest/fastest allocation on an idle resource); with
  /// `efficient` true it is the narrowest allocation that still meets the
  /// task's deadline (minimum node·seconds), falling back to min
  /// completion when no allocation is deadline-feasible.  Seeding both
  /// families keeps the population out of the serial-wide basin that pure
  /// min-completion greedy occupies.
  /// Reads its predictions from the prepared `context_` (and counts them
  /// into `scratch_`), so seeding shares the run's hoisted rows.
  [[nodiscard]] SolutionString greedy_seed(std::span<const Task> tasks,
                                           std::span<const SimTime> node_free,
                                           SimTime now, NodeMask available,
                                           bool deadline_order,
                                           bool efficient);

  /// Stochastic remainder selection: expected copies e_k = f_v,k·N/Σf_v;
  /// ⌊e_k⌋ copies deterministically, then Bernoulli draws on the
  /// fractional parts until `pool_` holds N parents.
  void select_parents(std::span<const double> fitness);

  ScheduleBuilder* builder_;
  GaConfig config_;
  Rng rng_;
  std::vector<SolutionString> population_;
  std::vector<TaskId> known_tasks_;  ///< task index -> id at last invocation
  std::uint64_t total_decodes_ = 0;
  std::uint64_t total_table_reads_ = 0;

  // -- hot-path state, reused across invocations (DESIGN.md §11) ----------
  DecodeContext context_;
  DecodeScratch scratch_;
  std::vector<double> costs_;
  // Breeding buffers (DESIGN.md §11): once they have grown to the task
  // set, a generation allocates nothing.
  std::vector<SolutionString> next_;  ///< next generation; swapped in
  std::vector<double> fitness_;
  std::vector<int> pool_;          ///< selected parents (population indices)
  std::vector<double> fraction_;   ///< selection remainders
  std::vector<int> by_cost_;       ///< elite ranking
};

}  // namespace gridlb::sched
