// The GA's two-part solution coding (paper §2.1, Fig. 2).
//
// A solution string consists of
//   * an ordering part — a permutation giving the sequence in which tasks
//     are considered by the list scheduler, and
//   * a mapping part — one node bit-mask per task giving the processing
//     nodes allocated to it.
//
// The paper stores the mapping sections "commensurate with the task
// order"; we index the mapping by task (not by position), which encodes
// the identical information — the order-aligned view required by the
// crossover operator is recovered through the ordering part.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "sched/node_mask.hpp"

namespace gridlb::sched {

class SolutionString {
 public:
  SolutionString() = default;

  /// Builds a solution over `task_count` tasks on `node_count` nodes.
  /// `order` must be a permutation of [0, task_count); every mask must be a
  /// non-empty subset of the resource's nodes.
  SolutionString(std::vector<int> order, std::vector<NodeMask> mapping,
                 int node_count);

  /// Uniformly random legal solution.
  static SolutionString random(int task_count, int node_count, Rng& rng);

  [[nodiscard]] int task_count() const {
    return static_cast<int>(order_.size());
  }
  [[nodiscard]] int node_count() const { return node_count_; }

  /// Task index executed at position `p` of the sequence.
  [[nodiscard]] int task_at(int p) const {
    return order_[static_cast<std::size_t>(p)];
  }
  /// Node allocation of task `t`.
  [[nodiscard]] NodeMask mask_of(int t) const {
    return mapping_[static_cast<std::size_t>(t)];
  }

  [[nodiscard]] const std::vector<int>& order() const { return order_; }
  [[nodiscard]] const std::vector<NodeMask>& mapping() const {
    return mapping_;
  }

  /// Full structural validity check (permutation + legal masks).
  [[nodiscard]] bool valid() const;

  // -- genetic operators --------------------------------------------------

  /// Two-part crossover (paper §2.1): the ordering parts are spliced at a
  /// random cut — the child keeps this parent's prefix and completes it
  /// with the remaining tasks in the mate's relative order (guaranteeing a
  /// legal permutation).  The mapping parts, viewed in the child's task
  /// order, undergo a single-point binary crossover at a random bit; empty
  /// allocations are repaired with a random node.
  ///
  /// The child is written into `child`, whose previous contents are
  /// discarded and whose capacity is reused, so a breeding loop that
  /// recycles its children does not allocate.  `child` must be neither
  /// parent.
  void crossover(const SolutionString& mate, Rng& rng,
                 SolutionString& child) const;

  /// Two-part mutation: a random transposition in the ordering part, and
  /// independent bit-flips (probability `bit_flip_rate`) in the mapping
  /// part, with empty-allocation repair.
  void mutate(double order_swap_rate, double bit_flip_rate, Rng& rng);

  /// Adapts the solution to a changed task set: `kept[t_old]` is the new
  /// index of old task `t_old` (or -1 if it was removed, e.g. started
  /// executing), and `new_task_count` includes freshly-arrived tasks,
  /// which are appended at random order positions with random masks.
  /// This is how the GA "absorbs system changes such as the addition or
  /// deletion of tasks".
  void remap_tasks(const std::vector<int>& kept, int new_task_count, Rng& rng);

  /// Restricts every task's allocation to `allowed` (a non-empty subset of
  /// the resource's nodes), repairing emptied allocations with a random
  /// allowed node.  This is how the GA absorbs "changes in the number of
  /// hosts or processors available in the local domain".
  void constrain(NodeMask allowed, Rng& rng);

  bool operator==(const SolutionString&) const = default;

 private:
  void repair_mask(int task, Rng& rng);

  std::vector<int> order_;        // position -> task index
  std::vector<NodeMask> mapping_;  // task index -> node mask
  int node_count_ = 0;
};

}  // namespace gridlb::sched
