// Construction of the whole agent hierarchy (paper Fig. 4 / Fig. 7).
//
// AgentSystem owns every piece of one grid: the simulated network, the
// PACE prediction table, one LocalScheduler per resource, and
// one Agent per resource wired into a hierarchy of homogeneous agents.
// Completion records flow into an optional MetricsCollector as they fire.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agents/agent.hpp"
#include "metrics/metrics.hpp"
#include "pace/hardware.hpp"
#include "sched/resource_monitor.hpp"
#include "sim/sharded_engine.hpp"

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

/// Optional node-churn model applied identically to every resource.
struct ChurnConfig {
  bool enabled = false;
  double mtbf = 600.0;        ///< mean node up-time, seconds
  double mttr = 120.0;        ///< mean repair time, seconds
  double horizon = 1200.0;    ///< failures generated until this time
  double poll_period = 300.0; ///< resource-monitor query period (paper: 5 min)
  std::uint64_t seed = 7;
};

/// Loss-tolerance knobs of the agent protocol (DESIGN.md §10).  They
/// apply only while SystemConfig::loss_tolerant() holds; otherwise the
/// protocol is byte-identical to the lossless one.
struct FaultToleranceConfig {
  /// Retry/timeout/backoff for request and result documents.
  RetryPolicy retry;
  /// An ACT entry missing this many advertisement periods is distrusted
  /// during discovery (the neighbour is suspected dead).
  int act_expiry_periods = 3;
};

/// Whole-agent process churn: crashes kill the agent's protocol state and
/// its pending queue; restarts come back with an empty ACT.  Distinct from
/// node-level ChurnConfig, which only removes processing nodes.
struct AgentChurnConfig {
  bool enabled = false;
  double mtbf = 1800.0;     ///< mean agent up-time, seconds
  double mttr = 30.0;       ///< mean process restart time, seconds
  double horizon = 600.0;   ///< crashes generated until this time
  /// Keep the hierarchy head alive (it is the portal's fallback entry).
  bool protect_head = true;
  std::uint64_t seed = 99;
};

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
  double network_latency = 0.05;   ///< one-way message delay, seconds
  /// Event queues the agents are partitioned across: 0 = one per hardware
  /// thread, N = exactly N (clamped to the agent count).  The queues are
  /// merged into one order on the calling thread, so results are
  /// bit-for-bit identical at any value and no value is faster (DESIGN.md
  /// §13).
  int sim_shards = 1;
  std::uint64_t seed = 42;         ///< per-scheduler GA seeds derive from it
  double prediction_error = 0.0;   ///< see LocalScheduler::Config
  ChurnConfig churn;
  /// Deterministic network faults (drops, jitter, partitions).
  sim::FaultPlan fault;
  FaultToleranceConfig fault_tolerance;
  AgentChurnConfig agent_churn;
  /// Threshold-triggered queue migration, applied to every agent.
  MigrationConfig migration;

  /// Whether the agents and the portal run the loss-tolerant protocol:
  /// exactly when something can lose a message or an agent (an active
  /// fault plan or agent churn).  Without either, sends stay plain.
  [[nodiscard]] bool loss_tolerant() const {
    return fault.active() || agent_churn.enabled;
  }
  /// The request/result retry policy; empty unless loss_tolerant().
  [[nodiscard]] std::optional<RetryPolicy> retry_policy() const {
    if (!loss_tolerant()) return std::nullopt;
    return fault_tolerance.retry;
  }
  /// Age in seconds past which discovery distrusts an ACT entry:
  /// act_expiry_periods × pull_period when loss_tolerant(), else 0
  /// (trust every entry forever).
  [[nodiscard]] double act_expiry() const {
    return loss_tolerant() ? fault_tolerance.act_expiry_periods * pull_period
                           : 0.0;
  }

  /// Throws AssertionError unless the fault plan, both churn models and
  /// every resource's scheduler settings are in range.  The AgentSystem
  /// constructor runs it first; a command line can run it before any
  /// setup to report a bad flag.
  void validate() const;
};

class AgentSystem {
 public:
  /// Builds (but does not start) the system.  `collector` may be null; if
  /// given, every resource is registered and completions are recorded.
  /// Agents are pinned to `sharded`'s engine shards by subtree-affine
  /// assignment (contiguous DFS-preorder chunks, head on shard 0) so
  /// parent/child chatter stays intra-shard.
  AgentSystem(sim::ShardedEngine& sharded,
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
  [[nodiscard]] std::size_t head_index() const { return head_index_; }
  /// Shard the given agent is pinned to (always 0 with one shard).
  [[nodiscard]] std::size_t shard_of(std::size_t index) const;
  /// Completions recorded so far.
  [[nodiscard]] std::uint64_t completed_count() const {
    return completed_count_;
  }
  /// Strict-failure drops notified so far (always 0 outside strict mode).
  /// The notifications are deferred events, so completed + dropped can form
  /// the drive goal.
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_count_; }
  /// Subtree-affine shard assignment: DFS preorder of the hierarchy cut
  /// into `shards` contiguous chunks.  Exposed for tests.
  static std::vector<std::size_t> assign_shards(
      const std::vector<ResourceSpec>& resources, std::size_t shards);
  /// Per-resource monitors (empty unless churn is enabled).
  [[nodiscard]] const std::vector<std::unique_ptr<sched::ResourceMonitor>>&
  monitors() const {
    return monitors_;
  }

 private:
  void build(const pace::ApplicationCatalogue& catalogue,
             metrics::MetricsCollector* collector);
  [[nodiscard]] sim::Engine& engine_for(std::size_t index) {
    return sharded_.shard(shard_assignment_[index]);
  }
  void schedule_agent_churn();
  void crash_agent(std::size_t index);

  sim::ShardedEngine& sharded_;
  SystemConfig config_;  ///< read in place by every agent; never mutated
  pace::PredictionTable predictions_;  ///< after config_: built from it
  std::function<void(TaskId)> stranded_sink_;
  std::unique_ptr<sim::Network> network_;
  std::vector<std::unique_ptr<sched::LocalScheduler>> schedulers_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<std::unique_ptr<sched::NodeAvailability>> availability_;
  std::vector<std::unique_ptr<sched::ResourceMonitor>> monitors_;
  std::size_t head_index_ = 0;
  std::vector<std::size_t> shard_assignment_;
  std::uint64_t completed_count_ = 0;
  std::uint64_t dropped_count_ = 0;
};

}  // namespace gridlb::agents
