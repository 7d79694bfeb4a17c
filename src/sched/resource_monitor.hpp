// Resource monitoring (paper §2.2).
//
// "The resource monitoring is responsible for gathering statistics
// concerning the process nodes on which tasks may execute. …  Currently,
// only host availability is supported, where the resource monitor queries
// each known node every five minutes.  This is provided to the GA
// scheduler as the currently available resources P on which tasks can be
// scheduled."
//
// Three pieces:
//  * NodeAvailability — the ground truth of which nodes are up, mutated by
//    failure/repair events on the simulation engine;
//  * availability scripts — deterministic exponential failure/repair event
//    sequences (MTBF / MTTR), plus a helper to arm them on the engine;
//  * ResourceMonitor — polls the truth every `poll_period` (default 300 s,
//    the paper's five minutes) and pushes changes into the LocalScheduler.
//    The polling gap means the scheduler's view can lag reality, exactly
//    as in the paper's implementation.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/local_scheduler.hpp"
#include "sim/engine.hpp"

namespace gridlb::sched {

/// Ground-truth up/down state of one resource's processing nodes.
class NodeAvailability {
 public:
  /// All nodes start up.
  explicit NodeAvailability(int node_count);

  void set(int node, bool up);
  [[nodiscard]] bool up(int node) const;
  [[nodiscard]] NodeMask mask() const { return mask_; }
  [[nodiscard]] int node_count() const { return node_count_; }

 private:
  NodeMask mask_;
  int node_count_;
};

/// One scripted failure or repair.
struct AvailabilityEvent {
  SimTime at = 0.0;
  int node = 0;
  bool up = false;
};

/// Deterministic per-node alternating renewal process: up-times are
/// exponential with mean `mtbf`, repair times exponential with mean
/// `mttr`, generated until `horizon`.  Events are returned time-sorted.
[[nodiscard]] std::vector<AvailabilityEvent> random_availability_script(
    int node_count, SimTime horizon, double mtbf, double mttr,
    std::uint64_t seed);

/// Arms a script on the engine: each event mutates `truth` at its time.
/// `truth` must outlive the engine run.
void schedule_availability(sim::Engine& engine, NodeAvailability& truth,
                           std::vector<AvailabilityEvent> script);

/// Periodic poller bridging ground truth to the scheduler's view.
class ResourceMonitor {
 public:
  /// The paper's poll period is five minutes.
  static constexpr double kDefaultPollPeriod = 300.0;

  ResourceMonitor(sim::Engine& engine, LocalScheduler& scheduler,
                  const NodeAvailability& truth,
                  double poll_period = kDefaultPollPeriod);

  /// Performs an immediate poll and arms the periodic query.
  void start();

  /// One query of every known node (also called by the periodic event).
  void poll();

 private:
  sim::Engine& engine_;
  LocalScheduler& scheduler_;
  const NodeAvailability& truth_;
  double poll_period_;
  NodeMask view_;
  bool started_ = false;
};

}  // namespace gridlb::sched
