#include "sched/resource_monitor.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace gridlb::sched {

NodeAvailability::NodeAvailability(int node_count)
    : mask_(full_mask(node_count)), node_count_(node_count) {
  GRIDLB_REQUIRE(node_count >= 1 && node_count <= kMaxNodesPerResource,
                 "node count out of range");
}

void NodeAvailability::set(int node, bool up) {
  GRIDLB_REQUIRE(node >= 0 && node < node_count_, "node index out of range");
  const NodeMask bit = NodeMask{1} << node;
  mask_ = up ? (mask_ | bit) : (mask_ & ~bit);
}

bool NodeAvailability::up(int node) const {
  GRIDLB_REQUIRE(node >= 0 && node < node_count_, "node index out of range");
  return ((mask_ >> node) & 1u) != 0;
}

std::vector<AvailabilityEvent> random_availability_script(
    int node_count, SimTime horizon, double mtbf, double mttr,
    std::uint64_t seed) {
  GRIDLB_REQUIRE(node_count >= 1, "need at least one node");
  GRIDLB_REQUIRE(horizon > 0.0, "horizon must be positive");
  GRIDLB_REQUIRE(mtbf > 0.0 && mttr > 0.0, "MTBF and MTTR must be positive");

  Rng rng(seed);
  const auto exponential = [&rng](double mean) {
    // Inverse-CDF sampling; 1 − u avoids log(0).
    return -mean * std::log(1.0 - rng.next_double());
  };

  std::vector<AvailabilityEvent> events;
  for (int node = 0; node < node_count; ++node) {
    SimTime t = 0.0;
    for (;;) {
      t += exponential(mtbf);  // next failure
      if (t >= horizon) break;
      events.push_back(AvailabilityEvent{t, node, false});
      t += exponential(mttr);  // repair
      if (t >= horizon) break;
      events.push_back(AvailabilityEvent{t, node, true});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const AvailabilityEvent& a, const AvailabilityEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.node < b.node;
            });
  return events;
}

void schedule_availability(sim::Engine& engine, NodeAvailability& truth,
                           std::vector<AvailabilityEvent> script) {
  for (const AvailabilityEvent& event : script) {
    GRIDLB_REQUIRE(event.at >= engine.now(),
                   "availability script reaches into the past");
    engine.schedule_at(event.at, [&truth, event]() {
      truth.set(event.node, event.up);
    });
  }
}

ResourceMonitor::ResourceMonitor(sim::Engine& engine,
                                 LocalScheduler& scheduler,
                                 const NodeAvailability& truth,
                                 double poll_period)
    : engine_(engine),
      scheduler_(scheduler),
      truth_(truth),
      poll_period_(poll_period),
      view_(full_mask(truth.node_count())) {
  GRIDLB_REQUIRE(poll_period > 0.0, "poll period must be positive");
  GRIDLB_REQUIRE(truth.node_count() == scheduler.config().node_count,
                 "monitor and scheduler disagree on the node count");
}

void ResourceMonitor::start() {
  GRIDLB_REQUIRE(!started_, "monitor already started");
  started_ = true;
  engine_.schedule_periodic(0.0, poll_period_, [this]() { poll(); });
}

void ResourceMonitor::poll() {
  const NodeMask current = truth_.mask();
  const NodeMask changed = current ^ view_;
  if (changed == 0) return;
  for_each_node(changed, [&](int node) {
    scheduler_.set_node_available(node, truth_.up(node));
  });
  view_ = current;
}

}  // namespace gridlb::sched
