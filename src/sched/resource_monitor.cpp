#include "sched/resource_monitor.hpp"

#include <cmath>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace gridlb::sched {

void ChurnConfig::validate(std::string_view what) const {
  if (!enabled) return;
  GRIDLB_REQUIRE(mtbf > 0.0 && mttr > 0.0,
                 std::string(what) + " churn needs positive mtbf and mttr");
}

std::vector<ChurnEvent> churn_script(const ChurnConfig& config, int units,
                                     std::uint64_t seed, int skip) {
  GRIDLB_REQUIRE(units >= 1, "need at least one unit");
  GRIDLB_REQUIRE(std::isfinite(config.horizon), "horizon must be finite");
  GRIDLB_REQUIRE(config.mtbf > 0.0 && config.mttr > 0.0,
                 "MTBF and MTTR must be positive");

  Rng rng(seed);
  const auto exponential = [&rng](double mean) {
    // Inverse-CDF sampling; 1 − u avoids log(0).
    return -mean * std::log(1.0 - rng.next_double());
  };

  std::vector<ChurnEvent> events;
  for (int unit = 0; unit < units; ++unit) {
    if (unit == skip) continue;
    SimTime t = 0.0;
    for (;;) {
      t += exponential(config.mtbf);
      if (t >= config.horizon) break;
      events.push_back(ChurnEvent{t, unit, false});
      t += exponential(config.mttr);
      events.push_back(ChurnEvent{t, unit, true});
    }
  }
  return events;
}

ResourceMonitor::ResourceMonitor(sim::Engine& engine,
                                 LocalScheduler& scheduler,
                                 const std::vector<ChurnEvent>& script,
                                 double poll_period)
    : engine_(engine),
      scheduler_(scheduler),
      poll_period_(poll_period),
      truth_(full_mask(scheduler.config().node_count)) {
  GRIDLB_REQUIRE(poll_period > 0.0, "poll period must be positive");
  const int nodes = scheduler.config().node_count;
  for (const ChurnEvent& event : script) {
    GRIDLB_REQUIRE(event.unit >= 0 && event.unit < nodes,
                   "node index out of range");
    const NodeMask bit = NodeMask{1} << event.unit;
    engine_.schedule_at(event.at, [this, bit, up = event.up]() {
      truth_ = up ? (truth_ | bit) : (truth_ & ~bit);
    });
  }
}

void ResourceMonitor::start() {
  GRIDLB_REQUIRE(!started_, "monitor already started");
  started_ = true;
  engine_.schedule_periodic(0.0, poll_period_, [this]() {
    poll();
    return true;
  });
}

void ResourceMonitor::poll() {
  for_each_node(truth_ ^ scheduler_.available_nodes(), [&](int node) {
    scheduler_.set_node_available(node, ((truth_ >> node) & 1u) != 0);
  });
}

}  // namespace gridlb::sched
