// PACE evaluation engine and the grid's prediction table.
//
// The engine combines an application model with a resource model at run
// time to produce performance data — here, the predicted execution time of
// the application on k homogeneous nodes of the resource.  The paper's GA
// issues on the order of a thousand evaluations per generation, most of
// them repeats, so "a cache of all previous evaluations has been added
// between the scheduler and the PACE evaluation engine".
//
// The key space of that cache is finite and known when a grid is built:
// the application catalogue × the grid's platforms × nproc 1..width
// (7 × 5 × 16 = 560 entries for the case study).  PredictionTable
// therefore evaluates every entry once, eagerly, before the simulation
// starts, and is read-only afterwards.  Every entry is the engine's own
// value, so reading the table is bit-identical to calling the engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pace/application_model.hpp"
#include "pace/hardware.hpp"

namespace gridlb::pace {

/// Stateless model-combination engine.
class EvaluationEngine {
 public:
  /// Predicted execution time of `app` on `nproc` nodes of `resource`.
  /// This is the t_x(ρ, σ) of the paper's eq. (6).
  static double evaluate(const ApplicationModel& app,
                         const ResourceModel& resource, int nproc);
};

/// Prediction traffic of one run: `hits` are table reads, `misses` the
/// engine evaluations that filled the table (its entry count).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return lookups() == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups());
  }
};

/// Every t_x(σ, ρ) of one grid, evaluated at construction.
///
/// Rows are keyed on (application identity, platform type + factor).  The
/// application key is the model's address: models are immutable and
/// shared via ApplicationModelPtr, which the table holds, so the address
/// is a stable identity for the table's lifetime.  Immutable after
/// construction.
class PredictionTable {
 public:
  /// Evaluates every application of `catalogue` on every distinct platform
  /// of `resources` (duplicates are folded) for k = 1..`width`.
  PredictionTable(const ApplicationCatalogue& catalogue,
                  const std::vector<ResourceModel>& resources, int width);

  /// The row t_x(app, k nodes of `resource`) for k = 1..width(), row[k-1].
  /// An application or platform the table was not built with is a
  /// GRIDLB_REQUIRE failure.
  [[nodiscard]] std::span<const double> row(
      const ApplicationModel& app, const ResourceModel& resource) const;

  [[nodiscard]] int width() const { return width_; }
  /// Entries evaluated — one engine evaluation each.
  [[nodiscard]] std::size_t entries() const { return values_.size(); }

 private:
  std::vector<ApplicationModelPtr> apps_;
  std::vector<ResourceModel> platforms_;
  int width_ = 0;
  std::vector<double> values_;  ///< [app][platform][k-1]
};

/// Eq. 10's min_k t_x(k, σ) over `row`, one entry per node of a resource.
[[nodiscard]] double fastest(std::span<const double> row);

/// Expected makespan contribution of one task on that resource: execution
/// time × nodes / nproc at the most efficient allocation.
[[nodiscard]] double occupancy(std::span<const double> row);

}  // namespace gridlb::pace
