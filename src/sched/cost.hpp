// The GA's combined cost function (eq. 8) and dynamic fitness scaling
// (eq. 9).
//
//   f_c = (W_m·ω + W_i·φ + W_c·θ [+ W_f·Φ]) / (W_m + W_i + W_c [+ W_f])
//   f_v = (f_c^max − f_c) / (f_c^max − f_c^min)
//
// where ω is the makespan, φ the front-weighted idle time, θ the deadline
// contract penalty, and f_c^max / f_c^min the worst / best cost in the
// current scheduling set (population).
//
// Φ is a *reproduction extension*: the mean task completion latency
// (flowtime).  The paper's three terms never reward finishing a task
// earlier than its deadline, yet its headline metric ε (eq. 11) is exactly
// mean earliness; a small W_f aligns the GA with that metric and is needed
// to reproduce the ε improvements of experiment 2.  Set W_f = 0 for the
// literal three-term cost of eq. 8.
#pragma once

#include <span>
#include <vector>

#include "sched/schedule_builder.hpp"

namespace gridlb::sched {

/// The predetermined impact weights W_m, W_i, W_c of eq. 8.
struct CostWeights {
  double makespan = 1.0;   ///< W_m
  double idle = 0.25;     ///< W_i
  double deadline = 8.0;  ///< W_c
  double flowtime = 1.0;  ///< W_f (reproduction extension; 0 = literal eq. 8)
};

/// Cost value f_c of one decoded schedule (lower is better).  Takes the
/// metrics slice so the GA's metrics-only evaluate() path can be costed
/// without a full DecodedSchedule.
[[nodiscard]] double cost_value(const ScheduleMetrics& schedule,
                                const CostWeights& weights);

/// Dynamic scaling of a population's costs to fitness values in [0, 1]
/// (higher is better), written into `fitness` (resized to match `costs`,
/// reusing its capacity).  A degenerate population (all costs equal) gets
/// uniform fitness 1 so selection becomes unbiased rather than undefined.
void fitness_values(std::span<const double> costs,
                    std::vector<double>& fitness);

}  // namespace gridlb::sched
