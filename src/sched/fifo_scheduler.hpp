// The FIFO baseline scheduler (paper §4.1, experiment 1).
//
// "The FIFO scheduling does not change the order of tasks.  Each task is
// scheduled according to the time at which it arrives (also driven by the
// PACE predictive data).  All of the possible resource allocations (a
// total of 2^16−1 possibilities) are tried.  As soon as the current best
// solution is found, it is fixed and will not change as new tasks enter
// the system."
//
// For each arriving task the best of every non-empty node subset is chosen
// against the already-fixed schedule (the per-node free times).  Two
// readings of "best" are supported:
//
//  * kMinExecution (default, used for experiment 1) — the subset with the
//    smallest PACE-predicted execution time t_x wins; availability only
//    breaks ties.  Tasks queue for the execution-optimal allocation while
//    other nodes idle — this is the only reading consistent with Table 3's
//    experiment 1 signature (overloaded resources at ~44% utilisation with
//    ~-1000 s delays).
//  * kMinCompletion — the subset with the earliest completion (start +
//    execution) wins; a stronger baseline, kept for the FIFO-objective
//    ablation bench.
//
// The argmin is over all 2^n−1 subsets, as the paper states, but it is
// computed by width rather than by enumeration.  A resource is
// homogeneous, so t_x depends only on the subset size k, and the earliest
// size-k completion waits for the k-th earliest-free node.  Per width the
// winner is the lowest mask of k available nodes that completes at that
// time (judged on the rounded sum free + t_x, so ties and rounding
// collapses resolve exactly as the enumeration did); across widths the
// objective decides.  O(n²) per task instead of O(2^n·n).
//
// Ties break toward fewer nodes and then the lower mask for determinism.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "pace/evaluation_engine.hpp"
#include "sched/node_mask.hpp"
#include "sched/task.hpp"

namespace gridlb::sched {

struct FifoPlacement {
  NodeMask mask = 0;
  SimTime start = 0.0;
  SimTime end = 0.0;
};

enum class FifoObjective { kMinExecution, kMinCompletion };

class FifoScheduler {
 public:
  /// `table` must outlive the scheduler and cover `resource` with rows at
  /// least `node_count` wide.
  FifoScheduler(const pace::PredictionTable& table,
                pace::ResourceModel resource, int node_count,
                FifoObjective objective = FifoObjective::kMinExecution);

  /// Chooses the fixed allocation for `task` given the current per-node
  /// free times (absolute; values before `now` count as free now).
  [[nodiscard]] FifoPlacement place(const Task& task,
                                    std::span<const SimTime> node_free,
                                    SimTime now);

  /// As above with only the nodes in `available` usable (resource-monitor
  /// view); subsets touching a down node are never chosen.
  [[nodiscard]] FifoPlacement place(const Task& task,
                                    std::span<const SimTime> node_free,
                                    SimTime now, NodeMask available);

  /// Size of the search space covered so far: 2^n − 1 subsets per placed
  /// task, counting those touching down nodes.  The argmin is exact over
  /// that space even though it is computed per width, not by visiting
  /// each subset.
  [[nodiscard]] std::uint64_t subsets_tried() const { return subsets_tried_; }
  /// Prediction-table reads so far (one per processor count per placed
  /// task).
  [[nodiscard]] std::uint64_t table_reads() const { return table_reads_; }

 private:
  const pace::PredictionTable* table_;
  pace::ResourceModel resource_;
  int node_count_;
  FifoObjective objective_;
  std::uint64_t subsets_tried_ = 0;
  std::uint64_t table_reads_ = 0;
};

}  // namespace gridlb::sched
