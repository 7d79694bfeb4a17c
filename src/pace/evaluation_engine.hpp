// PACE evaluation engine and demand-driven evaluation cache.
//
// The engine combines an application model with a resource model at run
// time to produce performance data — here, the predicted execution time of
// the application on k homogeneous nodes of the resource.  The paper's GA
// issues on the order of a thousand evaluations per generation, most of
// them repeats, so "a cache of all previous evaluations has been added
// between the scheduler and the PACE evaluation engine"; CachedEvaluator
// reproduces that layer and exposes hit statistics for the cache ablation
// bench.
//
// Both layers are safe for concurrent use: the agents of a grid share one
// cache, and a sharded run (DESIGN.md §13) drives agents on several
// threads, so their prediction lookups may race.  The engine's evaluation counter is atomic, and the cache is
// sharded — each shard is an independent mutex-protected map, with the
// shard chosen by the key hash — so lookups on distinct keys mostly take
// distinct locks.  Concurrent misses on the same key may each invoke the
// engine (the value is a pure function of the key, so every computation
// agrees), which can make miss counts exceed the number of distinct keys
// by a handful under contention; hits + misses always equals lookups.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "pace/application_model.hpp"
#include "pace/hardware.hpp"

namespace gridlb::pace {

/// Stateless model-combination engine (plus an evaluation counter).
/// Thread-safe: the models are immutable and the counter is atomic.
class EvaluationEngine {
 public:
  /// Predicted execution time of `app` on `nproc` nodes of `resource`.
  /// This is the t_x(ρ, σ) of the paper's eq. (6).
  double evaluate(const ApplicationModel& app, const ResourceModel& resource,
                  int nproc);

  [[nodiscard]] std::uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> evaluations_{0};
};

/// Hit/miss statistics.  The cache keeps one CacheStats per shard (each
/// guarded by its shard's mutex); CachedEvaluator::stats() returns the
/// point-in-time aggregate over every shard and shard_snapshots() exposes
/// the per-shard view together with each shard's occupancy.
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

class CachedEvaluator;

/// Flat per-run snapshot of predictions — the lock-free layer in front of
/// the sharded cache.
///
/// A scheduler's inner loop only ever asks for t_x(σ, ρ) with σ drawn from
/// the handful of distinct applications in its pending queue and |ρ| in
/// [1, node_count]: a 16-node resource running the 7 case-study codes has
/// 112 distinct predictions.  `ensure_row` materialises one application's
/// whole row (k = 1..max_nproc) through the CachedEvaluator — paying the
/// shard locks once, at snapshot time — after which every hot-path lookup
/// is pure array indexing on the returned row: no locks, no hashing, no
/// allocation.
///
/// Not thread-safe for mutation: build rows on one thread (the snapshot
/// phase), then share the table read-only with any number of readers.
/// `ensure_row` for a *new* application may grow the backing storage and
/// invalidate previously returned row pointers — take row pointers only
/// after every row is built (or re-fetch per use, as FifoScheduler does).
class PredictionTable {
 public:
  PredictionTable() = default;

  /// Drops all rows and fixes the resource and row width for the next
  /// run.  Capacity is retained, so a table reset and refilled with a
  /// similar application mix performs no allocations.
  void reset(ResourceModel resource, int max_nproc);

  /// Row of predictions for `app`: row[k-1] = t_x(app, k nodes) for k in
  /// [1, max_nproc], values read through `cache` (bit-identical to direct
  /// cache lookups).  Builds the row on first sight of `app`.
  const double* ensure_row(CachedEvaluator& cache, const ApplicationModel& app);

  /// Row for an application already materialised via `ensure_row`, or
  /// nullptr.  Const and lock-free; safe from any thread once building is
  /// done.
  [[nodiscard]] const double* row_of(const ApplicationModel& app) const;

  [[nodiscard]] int max_nproc() const { return max_nproc_; }
  [[nodiscard]] std::size_t app_count() const { return apps_.size(); }
  /// Total rows materialised over the table's lifetime (across resets).
  [[nodiscard]] std::uint64_t rows_built() const { return rows_built_; }

 private:
  ResourceModel resource_{};
  int max_nproc_ = 0;
  std::vector<const ApplicationModel*> apps_;  ///< row order
  std::vector<double> values_;                 ///< row-major, apps × width
  std::uint64_t rows_built_ = 0;
};

/// Demand-driven cache in front of an EvaluationEngine.
///
/// Keys on (application identity, resource type+factor, nproc).  The
/// application key is the model's address: models are immutable and shared
/// via ApplicationModelPtr for their whole lifetime, so the address is a
/// stable identity within a run.
///
/// Safe for concurrent `evaluate` calls from any number of threads (see
/// the file comment for the sharding scheme and its stats caveats).
class CachedEvaluator {
 public:
  explicit CachedEvaluator(EvaluationEngine& engine) : engine_(&engine) {}

  double evaluate(const ApplicationModel& app, const ResourceModel& resource,
                  int nproc);

  /// Snapshot API: (re)builds `table` over `resource` with rows of width
  /// `max_nproc`, ready for `PredictionTable::ensure_row` calls.  Sugar
  /// over `table.reset` that keeps the call site on the cache, mirroring
  /// where the data comes from.
  void snapshot(PredictionTable& table, ResourceModel resource,
                int max_nproc) {
    table.reset(resource, max_nproc);
  }

  /// Aggregated snapshot over all shards.
  [[nodiscard]] CacheStats stats() const;
  /// Per-shard hit/miss statistics and occupancy (entry count), shard
  /// order.  Useful for checking that the key hash spreads load — a hot
  /// shard serialises its callers.
  struct ShardSnapshot {
    CacheStats stats;
    std::size_t entries = 0;
  };
  [[nodiscard]] std::vector<ShardSnapshot> shard_snapshots() const;
  /// Cached entries across all shards.
  [[nodiscard]] std::size_t size() const;
  void clear();

  static constexpr std::size_t kShardCount = 16;

 private:
  struct Key {
    const ApplicationModel* app;
    HardwareType type;
    double factor;
    int nproc;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, double, KeyHash> map;
    CacheStats stats;  ///< guarded by `mutex`
  };

  EvaluationEngine* engine_;
  std::array<Shard, kShardCount> shards_;
};

}  // namespace gridlb::pace
