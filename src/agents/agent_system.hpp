// Construction of the whole agent hierarchy (paper Fig. 4 / Fig. 7).
//
// AgentSystem owns every piece of one grid: the simulated network, the
// PACE prediction table, one LocalScheduler per resource, and
// one Agent per resource wired into a hierarchy of homogeneous agents.
// Completion records flow into an optional MetricsCollector as they fire.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "agents/agent.hpp"
#include "metrics/metrics.hpp"
#include "pace/hardware.hpp"
#include "sched/resource_monitor.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace gridlb::agents {

/// One grid resource and its position in the hierarchy.
struct ResourceSpec {
  std::string name;  ///< agent name, e.g. "S1"
  pace::HardwareType hardware = pace::HardwareType::kSgiOrigin2000;
  int node_count = 16;
  /// Index of the upper agent within the spec list; -1 marks the head.
  /// Parents must precede children in the list (topological order).
  int parent = -1;
};

/// Under the loss-tolerant protocol (DESIGN.md §10), an ACT entry missing
/// this many advertisement periods is distrusted during discovery (the
/// neighbour is suspected dead).
inline constexpr int kActExpiryPeriods = 3;

/// One-way message delay of the grid's network, seconds.
inline constexpr double kNetworkLatency = 0.05;

/// Seeds of the two churn processes' streams (node churn seeds one child
/// stream per resource from its own).
inline constexpr std::uint64_t kNodeChurnSeed = 7;
inline constexpr std::uint64_t kAgentChurnSeed = 99;

struct SystemConfig {
  std::vector<ResourceSpec> resources;
  sched::SchedulerPolicy policy = sched::SchedulerPolicy::kGa;
  sched::FifoObjective fifo_objective = sched::FifoObjective::kMinExecution;
  sched::GaConfig ga;
  bool discovery_enabled = true;
  bool strict_failure = false;
  double pull_period = 10.0;       ///< case study: ten seconds
  bool push_on_dispatch = false;
  AdvertisementScope scope = AdvertisementScope::kOwnService;
  /// Read by nothing: every run owns one event queue (DESIGN.md §13).
  /// perfbench/bench.cpp is the only writer; the benchmark change that
  /// refreshes perfbench/ (ROADMAP item 2) deletes the field.
  int sim_shards = 1;
  std::uint64_t seed = 42;         ///< per-scheduler GA seeds derive from it
  double prediction_error = 0.0;   ///< see LocalScheduler::Config
  /// Node churn: every resource's processing nodes fail and return; its
  /// ResourceMonitor reports the changes every monitor_poll_period.
  sched::ChurnConfig churn{.mtbf = 600.0, .mttr = 120.0, .horizon = 1200.0};
  /// Agent churn: whole agent processes crash, losing their protocol state
  /// and pending queue, and restart with an empty ACT.  The hierarchy head
  /// never crashes: it is the portal's fallback entry.
  sched::ChurnConfig agent_churn{.mtbf = 1800.0, .mttr = 30.0,
                                 .horizon = 600.0};
  /// Resource-monitor query period under node churn (paper: five minutes).
  double monitor_poll_period = 300.0;
  /// Deterministic network faults (drops, jitter).
  sim::FaultPlan fault;
  /// Threshold-triggered queue migration, applied to every agent.
  MigrationConfig migration;

  /// Whether the agents and the portal run the loss-tolerant protocol:
  /// exactly when something can lose a message or an agent (an active
  /// fault plan or agent churn).  Without either, sends stay plain.
  [[nodiscard]] bool loss_tolerant() const {
    return fault.active() || agent_churn.enabled;
  }
  /// Age in seconds past which discovery distrusts an ACT entry:
  /// kActExpiryPeriods × pull_period when loss_tolerant(), else 0
  /// (trust every entry forever).
  [[nodiscard]] double act_expiry() const {
    return loss_tolerant() ? kActExpiryPeriods * pull_period : 0.0;
  }

  /// Throws AssertionError unless the fault plan, the pull period, both
  /// churn models and every resource's scheduler settings are in range.
  /// The AgentSystem constructor runs it first; a command line can run it
  /// before any setup to report a bad flag.
  void validate() const;
};

class AgentSystem {
 public:
  /// Builds (but does not start) the system on `engine`.  `collector` may
  /// be null; if given, every resource is registered and completions are
  /// recorded.
  AgentSystem(sim::Engine& engine,
              const pace::ApplicationCatalogue& catalogue, SystemConfig config,
              metrics::MetricsCollector* collector);

  AgentSystem(const AgentSystem&) = delete;
  AgentSystem& operator=(const AgentSystem&) = delete;

  /// Arms periodic advertisement on every agent.
  void start();

  [[nodiscard]] std::size_t size() const { return agents_.size(); }
  [[nodiscard]] Agent& agent(std::size_t index);
  [[nodiscard]] const Agent& agent(std::size_t index) const;
  /// Agent by name ("S3"); nullptr for unknown names.
  [[nodiscard]] Agent* find_agent(const std::string& name);
  /// Agent by name ("S3"); throws for unknown names.
  [[nodiscard]] Agent& agent_named(const std::string& name);
  [[nodiscard]] Agent& head() { return agent(head_index_); }

  /// Receiver for tasks stranded by an agent crash (pending on the dead
  /// agent's scheduler, never started).  Typically the portal's resubmit.
  void set_stranded_sink(std::function<void(TaskId)> sink) {
    stranded_sink_ = std::move(sink);
  }

  [[nodiscard]] sim::Network& network() { return *network_; }
  /// Every t_x of this grid: the catalogue × the grid's platforms × 1..the
  /// widest resource's node count, built before the simulation starts.
  [[nodiscard]] const pace::PredictionTable& predictions() const {
    return predictions_;
  }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  /// Strict-failure drops notified so far (always 0 outside strict mode).
  /// The notifications are deferred events, so the collector's completions
  /// plus these drops can form the run loop's stop condition.
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_count_; }

 private:
  void build(const pace::ApplicationCatalogue& catalogue,
             metrics::MetricsCollector* collector);
  void crash_agent(std::size_t index);

  sim::Engine& engine_;
  SystemConfig config_;  ///< read in place by every agent; never mutated
  pace::PredictionTable predictions_;  ///< after config_: built from it
  std::function<void(TaskId)> stranded_sink_;
  std::unique_ptr<sim::Network> network_;
  std::vector<std::unique_ptr<sched::LocalScheduler>> schedulers_;
  std::vector<std::unique_ptr<Agent>> agents_;
  /// One per resource under node churn, else none.
  std::vector<std::unique_ptr<sched::ResourceMonitor>> monitors_;
  std::size_t head_index_ = 0;
  std::uint64_t dropped_count_ = 0;
};

}  // namespace gridlb::agents
