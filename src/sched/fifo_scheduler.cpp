#include "sched/fifo_scheduler.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"

namespace gridlb::sched {

FifoScheduler::FifoScheduler(pace::CachedEvaluator& evaluator,
                             pace::ResourceModel resource, int node_count,
                             FifoObjective objective)
    : evaluator_(&evaluator),
      resource_(resource),
      node_count_(node_count),
      objective_(objective) {
  GRIDLB_REQUIRE(node_count >= 1 && node_count <= kMaxNodesPerResource,
                 "node count out of range");
  evaluator_->snapshot(table_, resource_, node_count_);
}

FifoPlacement FifoScheduler::place(const Task& task,
                                   std::span<const SimTime> node_free,
                                   SimTime now) {
  return place(task, node_free, now, full_mask(node_count_));
}

FifoPlacement FifoScheduler::place(const Task& task,
                                   std::span<const SimTime> node_free,
                                   SimTime now, NodeMask available) {
  GRIDLB_REQUIRE(static_cast<int>(node_free.size()) == node_count_,
                 "node_free size mismatch");
  GRIDLB_REQUIRE(valid_mask(available, node_count_),
                 "place needs at least one available node");

  std::array<SimTime, kMaxNodesPerResource> free{};
  std::array<SimTime, kMaxNodesPerResource> sorted{};  // available nodes only
  std::size_t up = 0;
  for (int i = 0; i < node_count_; ++i) {
    const auto node = static_cast<std::size_t>(i);
    free[node] = std::max(node_free[node], now);
    if ((available >> i) & 1u) sorted[up++] = free[node];
  }
  std::sort(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(up));
  // One prediction row per application, materialised through the cache on
  // first sight and then reused lock-free.  Re-fetched per place() because
  // a new application's row build may relocate the table's storage.
  const double* exec_row = table_.ensure_row(*evaluator_, *task.app);
  table_reads_ += static_cast<std::uint64_t>(node_count_);
  subsets_tried_ += full_mask(node_count_);

  // t_x depends only on the width k, so the earliest width-k completion
  // waits for the k-th earliest-free node.  Widths are visited in ascending
  // order and replace the incumbent only when strictly better, which is
  // the fewer-nodes tie-break.
  FifoPlacement best;
  double best_exec = 0.0;
  for (std::size_t k = 1; k <= up; ++k) {
    const double exec = exec_row[k - 1];
    const SimTime end = sorted[k - 1] + exec;
    bool better = best.mask == 0;
    if (objective_ == FifoObjective::kMinExecution) {
      // Execution time first; among equally-fast allocations take the one
      // that can begin earliest.
      better = better || exec < best_exec ||
               (exec == best_exec && end < best.end);
    } else {
      better = better || end < best.end;
    }
    if (!better) continue;
    // The lowest mask completing at `end`: a later-free node whose sum
    // rounds to the same `end` also qualifies, so eligibility is judged on
    // the rounded sum, not on the free time.
    NodeMask mask = 0;
    SimTime start = now;
    for (std::size_t i = 0, taken = 0; taken < k; ++i) {
      const SimTime f = free[i];
      if (((available >> i) & 1u) == 0 || f + exec > end) continue;
      mask |= NodeMask{1} << i;
      start = std::max(start, f);
      ++taken;
    }
    best_exec = exec;
    best = FifoPlacement{mask, start, start + exec};
  }
  GRIDLB_ASSERT(best.mask != 0);
  return best;
}

}  // namespace gridlb::sched
