#include "sched/schedule_builder.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace gridlb::sched {

ScheduleBuilder::ScheduleBuilder(const pace::PredictionTable& table,
                                 pace::ResourceModel resource, int node_count)
    : table_(&table), resource_(resource), node_count_(node_count) {
  GRIDLB_REQUIRE(node_count >= 1 && node_count <= kMaxNodesPerResource,
                 "node count out of range");
  GRIDLB_REQUIRE(table.width() >= node_count,
                 "prediction table narrower than the resource");
}

void ScheduleBuilder::prepare(DecodeContext& context,
                              std::span<const Task> tasks,
                              std::span<const SimTime> node_free, SimTime now,
                              NodeMask available) const {
  GRIDLB_REQUIRE(static_cast<int>(node_free.size()) == node_count_,
                 "node_free size mismatch");
  GRIDLB_REQUIRE((available & ~full_mask(node_count_)) == 0,
                 "available mask exceeds the resource");

  context.now_ = now;
  context.available_ = available;

  // Effective per-node availability, clamping past idle to `now`; down
  // nodes only come free at the distant horizon.
  for (int i = 0; i < node_count_; ++i) {
    const bool up = ((available >> i) & 1u) != 0;
    context.base_free_[static_cast<std::size_t>(i)] =
        up ? std::max(node_free[static_cast<std::size_t>(i)], now)
           : now + kUnavailableHorizon;
  }

  context.rows_.clear();
  context.deadlines_.clear();
  context.rows_.reserve(tasks.size());
  context.deadlines_.reserve(tasks.size());
  for (const Task& task : tasks) {
    context.rows_.push_back(table_->row(*task.app, resource_).data());
    context.deadlines_.push_back(task.deadline);
  }
}

ScheduleMetrics ScheduleBuilder::evaluate(const DecodeContext& context,
                                          const SolutionString& solution,
                                          DecodeScratch& scratch) const {
  return run(context, solution, scratch, nullptr);
}

DecodedSchedule ScheduleBuilder::decode(const DecodeContext& context,
                                        const SolutionString& solution,
                                        DecodeScratch& scratch) const {
  DecodedSchedule out;
  out.placements.resize(static_cast<std::size_t>(context.task_count()));
  static_cast<ScheduleMetrics&>(out) =
      run(context, solution, scratch, out.placements.data());
  return out;
}

ScheduleMetrics ScheduleBuilder::run(const DecodeContext& context,
                                     const SolutionString& solution,
                                     DecodeScratch& scratch,
                                     TaskPlacement* placements) const {
  const int task_count = context.task_count();
  GRIDLB_REQUIRE(solution.task_count() == task_count,
                 "solution does not cover the prepared task set");
  GRIDLB_REQUIRE(solution.node_count() == node_count_ || task_count == 0,
                 "solution node width mismatch");

  const SimTime now = context.now_;

  // Size the gap buffers for this task set — a no-op once the scratch has
  // seen the run's largest task set, keeping steady-state evaluation
  // allocation-free.  Worst case: one pocket per allocated node per task
  // plus one trailing pocket per node, plus one slot of slack because
  // branch-free compaction always writes one entry past the live count.
  const std::size_t worst_gaps =
      (static_cast<std::size_t>(task_count) + 1) *
          static_cast<std::size_t>(node_count_) +
      1;
  if (scratch.gap_start.size() < worst_gaps) {
    scratch.gap_start.resize(worst_gaps);
    scratch.gap_length.resize(worst_gaps);
  }

  scratch.free = context.base_free_;
  SimTime completion = now;
  double mean_sum = 0.0;
  double penalty = 0.0;
  int misses = 0;
  std::size_t ng = 0;

  SimTime* free_times = scratch.free.data();
  SimTime* gap_start = scratch.gap_start.data();
  double* gap_length = scratch.gap_length.data();

  for (int p = 0; p < task_count; ++p) {
    const int t = solution.task_at(p);
    const NodeMask mask = solution.mask_of(t);

    SimTime start = now;
    for_each_node(mask, [&](int node) {
      const SimTime free_at = free_times[node];
      start = start < free_at ? free_at : start;
    });
    const double exec =
        context.exec_time(t, ::gridlb::sched::node_count(mask));
    ++scratch.table_reads;
    const SimTime end = start + exec;

    for_each_node(mask, [&](int node) {
      const SimTime was_free = free_times[node];
      gap_start[ng] = was_free;
      gap_length[ng] = start - was_free;
      ng += static_cast<std::size_t>(start > was_free);
      free_times[node] = end;
    });

    if (placements != nullptr) {
      auto& placement = placements[static_cast<std::size_t>(t)];
      placement.start = start;
      placement.end = end;
      placement.mask = mask;
    }
    completion = completion < end ? end : completion;

    const double overrun =
        end - context.deadlines_[static_cast<std::size_t>(t)];
    if (overrun > 0.0) {
      penalty += overrun;
      ++misses;
    }
    mean_sum += end - now;
  }

  ScheduleMetrics out;
  out.contract_penalty = penalty;
  out.deadline_misses = misses;
  out.mean_completion = mean_sum;
  if (task_count != 0) {
    out.mean_completion /= static_cast<double>(task_count);
  }
  out.completion = completion;
  out.makespan = completion - now;

  // Trailing idle: available nodes that finish before the makespan end.
  for (int i = 0; i < node_count_; ++i) {
    if (((context.available_ >> i) & 1u) == 0) continue;
    const SimTime last = free_times[i];
    gap_start[ng] = last;
    gap_length[ng] = completion - last;
    ng += static_cast<std::size_t>(completion > last);
  }

  // Front-weighted idle: a gap whose midpoint sits at the start of the
  // scheduling window weighs 2×, one at the very end ~0×; the weights
  // integrate to 1 over the window so φ of a uniformly spread idle profile
  // equals the plain idle total.  This pass must stay bit-for-bit as is:
  // reassociating the sum flips GA selections and breaks the experiment
  // pins.
  const double window = out.makespan;
  for (std::size_t i = 0; i < ng; ++i) {
    const double length = gap_length[i];
    out.total_idle += length;
    if (window <= 0.0) continue;
    const double mid_rel = ((gap_start[i] + length / 2.0) - now) / window;
    const double weight = 2.0 * (1.0 - std::clamp(mid_rel, 0.0, 1.0));
    out.weighted_idle += length * weight;
  }
  return out;
}

}  // namespace gridlb::sched
