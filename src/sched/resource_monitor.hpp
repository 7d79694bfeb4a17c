// Resource monitoring (paper §2.2) and the churn process that feeds it.
//
// "The resource monitoring is responsible for gathering statistics
// concerning the process nodes on which tasks may execute. …  Currently,
// only host availability is supported, where the resource monitor queries
// each known node every five minutes.  This is provided to the GA
// scheduler as the currently available resources P on which tasks can be
// scheduled."
//
// Two pieces:
//  * churn scripts — one deterministic exponential failure/repair process
//    (MTBF / MTTR), drawn up front for processing nodes (node churn) and
//    for whole agents (agent churn, agents/agent_system);
//  * ResourceMonitor — owns the ground truth of which nodes are up, arms
//    its resource's script to flip it, and polls it every `poll_period`
//    (the paper's five minutes by default), pushing changes into the
//    LocalScheduler, whose available-node mask is the one view of them.
//    The polling gap means that view can lag reality, exactly as in the
//    paper's implementation.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sched/local_scheduler.hpp"
#include "sim/engine.hpp"

namespace gridlb::sched {

/// An alternating failure/repair process applied to every unit (node or
/// agent) alike.  Off unless `enabled`.
struct ChurnConfig {
  bool enabled = false;
  double mtbf = 0.0;     ///< mean up-time, seconds
  double mttr = 0.0;     ///< mean repair time, seconds
  double horizon = 0.0;  ///< failures are drawn until this time

  /// Throws AssertionError ("<what> churn needs positive mtbf and mttr")
  /// unless the process is off or both means are positive.
  void validate(std::string_view what) const;
};

/// One scripted failure (`up` false) or repair of one unit.
struct ChurnEvent {
  SimTime at = 0.0;
  int unit = 0;
  bool up = false;
};

/// Draws `config`'s process for units 0..units-1 in turn from one stream
/// seeded by `seed`; unit `skip` draws nothing.  Up-times are exponential
/// with mean `mtbf`, repair times with mean `mttr`.  Every failure falls
/// before the horizon and is followed by its repair, even a repair that
/// falls after it, so no unit stays down for good.  Events come in draw
/// order: unit by unit, each unit's in time order.
[[nodiscard]] std::vector<ChurnEvent> churn_script(const ChurnConfig& config,
                                                   int units,
                                                   std::uint64_t seed,
                                                   int skip = -1);

/// Periodic poller bridging a resource's ground truth to its scheduler.
class ResourceMonitor {
 public:
  /// Arms `script` (events of this resource's nodes) on `engine`: each
  /// event sets its node's true state at its time.  All nodes start up.
  ResourceMonitor(sim::Engine& engine, LocalScheduler& scheduler,
                  const std::vector<ChurnEvent>& script, double poll_period);

  /// Performs an immediate poll and arms the periodic query.
  void start();

  /// One query of every known node (also called by the periodic event).
  void poll();

  /// The nodes up right now; the scheduler sees them at the next poll.
  [[nodiscard]] NodeMask truth() const { return truth_; }

 private:
  sim::Engine& engine_;
  LocalScheduler& scheduler_;
  double poll_period_;
  NodeMask truth_;
  bool started_ = false;
};

}  // namespace gridlb::sched
