// Decoding a solution string into a concrete schedule (Gantt chart).
//
// Implements the paper's schedule semantics: tasks are laid out in the
// ordering part's sequence; each task starts at the earliest moment all of
// its allocated nodes are simultaneously free ("a start time at which the
// allocated nodes all begin to execute the task in unison", eq. 6) and
// completes after the PACE-predicted execution time t_x(ρ_j, σ_j).
//
// Alongside the placements the decoder produces the three raw metrics the
// GA's cost function combines (eq. 8):
//   ω  makespan — latest completion, relative to `now` (eq. 7),
//   φ  front-weighted idle time — "idle time at the front of the schedule
//      is particularly undesirable … solutions that have large idle times
//      are penalised by weighting pockets of idle time",
//   θ  contract penalty — total deadline overrun Σ max(0, η_j − δ_j).
//
// The builder's API is prepare(), then evaluate() or decode(); the two
// decoding paths share one implementation (DESIGN.md §11):
//   * evaluate() — metrics only, the GA's hot path.  All genome-invariant
//     work (per-task prediction rows, clamped node availability) is
//     hoisted into a DecodeContext by prepare(), and all
//     mutable buffers live in a caller-owned DecodeScratch, so steady-state
//     evaluation performs zero heap allocations.
//   * decode() — evaluate() plus the per-task placements, run once for the
//     winning solution.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "pace/evaluation_engine.hpp"
#include "sched/solution.hpp"
#include "sched/task.hpp"

namespace gridlb::sched {

/// Where one task landed in the decoded schedule.
struct TaskPlacement {
  SimTime start = 0.0;  ///< τ_j (absolute)
  SimTime end = 0.0;    ///< η_j (absolute)
  NodeMask mask = 0;    ///< ρ_j
};

/// The cost-function inputs of one decoded schedule — everything the GA
/// needs to rank an individual, with no per-task storage.
struct ScheduleMetrics {
  SimTime completion = 0.0;  ///< absolute latest completion (max η_j)
  double makespan = 0.0;     ///< ω: completion − now (0 for empty schedules)
  double total_idle = 0.0;   ///< unweighted idle seconds across all nodes
  double weighted_idle = 0.0;  ///< φ: front-weighted idle
  double contract_penalty = 0.0;  ///< θ: Σ max(0, η_j − δ_j)
  double mean_completion = 0.0;   ///< Φ: mean of (η_j − now), the flowtime
  int deadline_misses = 0;
};

/// A fully-decoded schedule: the metrics plus its cost-function inputs.
struct DecodedSchedule : ScheduleMetrics {
  std::vector<TaskPlacement> placements;  ///< indexed by task index
};

/// Genome-invariant state for decoding one task set: per-task prediction
/// rows (pointers into the grid's shared PredictionTable) and the clamped
/// per-node availability.  Built once per scheduling run by
/// ScheduleBuilder::prepare and then shared read-only by every evaluate /
/// decode of that run.  Reusing one context across runs reuses all of its
/// capacity.
class DecodeContext {
 public:
  DecodeContext() = default;

  [[nodiscard]] int task_count() const {
    return static_cast<int>(rows_.size());
  }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] NodeMask available() const { return available_; }

  /// Predicted execution time of task `t` on `k` nodes — pure array
  /// indexing into the prediction table (bit-identical to the engine).
  [[nodiscard]] double exec_time(int t, int k) const {
    return rows_[static_cast<std::size_t>(t)][k - 1];
  }

 private:
  friend class ScheduleBuilder;

  std::vector<const double*> rows_;  ///< task index -> prediction row
  std::vector<double> deadlines_;    ///< task index -> δ_j (hoisted)
  /// Effective per-node availability: past free times clamped to `now`,
  /// down nodes pushed to the unavailable horizon.
  std::array<SimTime, kMaxNodesPerResource> base_free_{};
  SimTime now_ = 0.0;
  NodeMask available_ = 0;
};

/// Mutable buffers for evaluate/decode.  Idle pockets live in parallel
/// start/length vectors (compacted branch-free).  Capacity grows to the
/// run's high-water mark and is then reused, so steady-state evaluation
/// never allocates.
struct DecodeScratch {
  std::array<SimTime, kMaxNodesPerResource> free{};

  // -- idle pockets, structure-of-arrays ---------------------------------
  // gap_start[i]/gap_length[i] describe one pocket of idle time (before a
  // task's unison start, or trailing idle before the makespan end).  The
  // arrays are sized for the worst case up front and compacted without
  // branches; entries past the live count are scratch garbage.
  std::vector<SimTime> gap_start;
  std::vector<double> gap_length;

  /// Prediction-table reads performed through this scratch (one per task
  /// decoded).
  std::uint64_t table_reads = 0;
};

class ScheduleBuilder {
 public:
  /// `table` and `resource` provide t_x; `node_count` fixes ρ's width.
  /// The table must outlive the builder and cover `resource` with rows at
  /// least `node_count` wide.
  ScheduleBuilder(const pace::PredictionTable& table,
                  pace::ResourceModel resource, int node_count);

  /// Builds `context` for one scheduling run: hoists each task's
  /// prediction row out of the table and clamps per-node
  /// availability (`node_free` entries before `now` count as free-at-`now`
  /// — idle already in the past is sunk cost; nodes outside `available`
  /// come free only at `now + kUnavailableHorizon`, so any solution
  /// allocating them is heavily penalised through its makespan, and they
  /// contribute no idle time).
  void prepare(DecodeContext& context, std::span<const Task> tasks,
               std::span<const SimTime> node_free, SimTime now,
               NodeMask available) const;

  /// Metrics-only decode of `solution` under `context` — the GA's
  /// steady-state evaluation: zero heap allocations (all buffers live in
  /// `scratch`, all predictions in the context's hoisted rows).  Returns
  /// exactly the metrics decode() would.
  [[nodiscard]] ScheduleMetrics evaluate(const DecodeContext& context,
                                         const SolutionString& solution,
                                         DecodeScratch& scratch) const;

  /// Full decode under a prepared context: evaluate() plus the per-task
  /// placements.  Run once for the winning solution.
  [[nodiscard]] DecodedSchedule decode(const DecodeContext& context,
                                       const SolutionString& solution,
                                       DecodeScratch& scratch) const;

  /// Virtual availability horizon for down nodes (seconds past `now`).
  static constexpr double kUnavailableHorizon = 1e7;

  [[nodiscard]] int node_count() const { return node_count_; }
  [[nodiscard]] const pace::ResourceModel& resource() const {
    return resource_;
  }

 private:
  /// Shared implementation of evaluate/decode; `placements` (indexed by
  /// task) is written only when non-null.  The arithmetic is identical in
  /// both modes — same operations on the same values in the same order —
  /// so metrics-only evaluation and full decode agree bit-for-bit.
  ScheduleMetrics run(const DecodeContext& context,
                      const SolutionString& solution, DecodeScratch& scratch,
                      TaskPlacement* placements) const;

  const pace::PredictionTable* table_;
  pace::ResourceModel resource_;
  int node_count_;
};

}  // namespace gridlb::sched
