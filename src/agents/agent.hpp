// A grid agent (paper §3).
//
// Each agent provides the high-level representation of one local grid
// resource and cooperates with its *neighbours only* — its upper agent and
// its lower agents in the homogeneous hierarchy — through two activities:
//
//  * Service advertisement — by default each agent pulls service
//    information from its upper and lower agents periodically (every ten
//    seconds in the case study); an event-triggered push mode exists for
//    the advertisement-strategy ablation.  Advertisements land in the
//    agent capability table (ACT).
//
//  * Service discovery — on request arrival "its own service is evaluated
//    first.  If the requirement can be met locally, the discovery ends
//    successfully.  Otherwise service information from both upper and
//    lower agents is evaluated and the request dispatched to the agent
//    which is able to provide the best requirement/resource match.  If no
//    service can meet the requirement, the request is submitted to the
//    upper agent."  Matchmaking uses eq. 10: for a homogeneous n-node
//    resource the PACE evaluation function is called n times and
//    η_r = ω + min_k t_x(k, σ_r); the resource qualifies iff η_r ≤ δ_r.
//
// At the head of the hierarchy an unmatched request means "a request for
// computing resource which is not supported by the available grid".  The
// case study nevertheless executes all 600 tasks, so the default policy
// dispatches such requests to the best-estimate resource anyway (marked
// `final` so the recipient executes it without further discovery);
// `strict_failure` restores the paper's literal unsuccessful termination.
//
// All inter-agent traffic travels as Fig. 5 / Fig. 6 XML documents through
// the simulated network.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "agents/act.hpp"
#include "agents/reliable.hpp"
#include "agents/request.hpp"
#include "agents/result.hpp"
#include "agents/service_info.hpp"
#include "pace/application_model.hpp"
#include "pace/evaluation_engine.hpp"
#include "sched/local_scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace gridlb::agents {

struct SystemConfig;

/// How much service information an agent shares when advertising.
enum class AdvertisementScope {
  /// Each agent advertises only its own service (the case study's setup).
  kOwnService,
  /// Each agent also relays its capability-table entries, split-horizon
  /// (never back to the neighbour they came from).  Discovery can then
  /// route requests to non-neighbour resources through the neighbour that
  /// advertised them — wider reach for more advertisement traffic.
  kTransitive,
};

/// Threshold-triggered migration of *queued* (never running) tasks
/// (ROADMAP item 3, DESIGN.md §16).  When an advertisement shows a direct
/// neighbour far idler than the own backlog, up to kMigrationBatch still-
/// pending tasks are cancelled on the local scheduler and re-forwarded to
/// that neighbour as final dispatches.  Migration documents are ordinary
/// request documents riding the ReliableLink, so they survive message
/// drops (retries) and churn (crash strands them back to the portal).
struct MigrationConfig {
  bool enabled = false;
};

/// Own backlog (scheduler freetime − now, seconds) above which an agent
/// starts looking for a migration target.  90 s is tuned on the
/// ablation_migration sweep: 120 leaves hot queues standing, 60 thrashes
/// (re-homed tasks bounce between agents and balance degrades).
inline constexpr double kMigrationOverload = 90.0;
/// Advertised neighbour backlog below which it qualifies as a target.
inline constexpr double kMigrationUnderload = 30.0;
/// Queued tasks re-homed per qualifying advertisement, newest first.
inline constexpr int kMigrationBatch = 4;

/// Discovery budget; reaching it forces best-effort dispatch (or a drop
/// under strict_failure), and no migration sends a request that reached
/// it.  It is compared with `request.visited.size()`, the distinct agents
/// the request has tried, not with its hops: a revisit through transitive
/// routing does not grow it, so on a grid of fewer than 32 agents it never
/// triggers.
inline constexpr std::size_t kMaxHops = 32;

/// Identity of one agent.  The advertisement and discovery policy is the
/// grid's (every agent runs the same one, paper §3): agents read it from
/// the SystemConfig their AgentSystem owns.
struct AgentConfig {
  AgentId id;
  std::string name;     ///< "S1".."S12" in the case study
  std::string address;  ///< identity tuple used in the XML documents
  int port = 0;
};

/// Counters for the discovery/advertisement behaviour of one agent.
struct AgentStats {
  std::uint64_t requests_received = 0;   ///< arrivals incl. forwarded ones
  std::uint64_t dispatched_local = 0;    ///< executed on the own resource
  std::uint64_t forwarded_match = 0;     ///< sent to the best-match neighbour
  std::uint64_t forwarded_up = 0;        ///< escalated to the upper agent
  std::uint64_t fallback_dispatches = 0; ///< head-of-hierarchy best effort
  std::uint64_t dropped = 0;             ///< strict-mode failures
  std::uint64_t pulls_sent = 0;
  std::uint64_t advertisements_received = 0;
  std::uint64_t hops_accumulated = 0;    ///< Σ hops of locally-dispatched reqs
  std::uint64_t zero_hop_dispatches = 0; ///< executed where they entered
  std::uint64_t results_sent = 0;        ///< result documents posted back
  // Fault handling.
  std::uint64_t crashes = 0;             ///< agent-churn process failures
  std::uint64_t restarts = 0;
  std::uint64_t reroutes = 0;            ///< forwards rerouted after retry
                                         ///  exhaustion (neighbour suspected
                                         ///  dead)
  std::uint64_t migrations = 0;          ///< queued tasks re-homed to an
                                         ///  idler neighbour
};

class Agent {
 public:
  /// `predictions` must cover every application of `catalogue` and every
  /// platform of the grid.  `grid` supplies the policy and must outlive
  /// the agent.
  Agent(sim::Engine& engine, sim::Network& network,
        const pace::PredictionTable& predictions,
        const pace::ApplicationCatalogue& catalogue, const SystemConfig& grid,
        AgentConfig config, sched::LocalScheduler& scheduler);

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Topology wiring; must be complete before `start()`.
  void set_parent(Agent* parent);
  void add_child(Agent* child);

  /// Arms the periodic advertisement pull.
  void start();

  /// Agent-churn process failure: the endpoint goes deaf, the pull chain
  /// and in-flight retries die, and the ACT plus reply-routing state is
  /// lost.  Tasks still *pending* (not yet started) on the local scheduler
  /// die with the process and are returned so the portal can re-discover
  /// them; tasks already executing run to completion on the resource.
  [[nodiscard]] std::vector<TaskId> crash();

  /// Recovery: the endpoint comes back up and advertisement restarts from
  /// an empty ACT.
  void restart();

  [[nodiscard]] bool alive() const { return alive_; }

  /// Entry point for requests (from the portal, or locally generated).
  void receive_request(Request request, bool final_dispatch = false);

  /// Observer for strict-failure drops.  The notification is deferred by
  /// one network latency, so the run loop counts it like a completion.
  void set_drop_sink(std::function<void(TaskId)> sink) {
    drop_sink_ = std::move(sink);
  }

  /// Completion notification from the local scheduler; posts the
  /// execution result back to the request's originating endpoint ("the
  /// task execution results are sent directly back to the user from where
  /// the request originates").
  void on_task_completed(const sched::CompletionRecord& record);

  [[nodiscard]] AgentId id() const { return config_.id; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] Agent* parent() const { return parent_; }
  [[nodiscard]] const std::vector<Agent*>& children() const {
    return children_;
  }
  [[nodiscard]] sim::EndpointId endpoint() const { return endpoint_; }
  [[nodiscard]] const AgentStats& stats() const { return stats_; }
  [[nodiscard]] const LinkStats& link_stats() const { return link_.stats(); }
  [[nodiscard]] const CapabilityTable& act() const { return act_; }
  [[nodiscard]] sched::LocalScheduler& scheduler() const { return scheduler_; }

  /// Current Fig. 5 snapshot of the own resource.
  [[nodiscard]] ServiceInfo service_snapshot() const;

  /// Estimated completion time η_r (eq. 10) of `request` on the resource
  /// described by `info`; nullopt when the environment is unsupported or
  /// the application model is unknown.
  [[nodiscard]] std::optional<SimTime> estimate_completion(
      const ServiceInfo& info, const Request& request) const;

  /// Expected makespan contribution of `request` on the resource described
  /// by `info` (execution time × nodes / nproc at the most efficient
  /// allocation); used for the optimistic ACT bookkeeping after a forward.
  [[nodiscard]] std::optional<double> expected_occupancy(
      const ServiceInfo& info, const Request& request) const;

  /// Prediction-table entries read by the two estimates above.
  [[nodiscard]] std::uint64_t table_reads() const { return table_reads_; }

 private:
  void on_message(const sim::Message& message);
  void handle_pull(const sim::Message& message);
  void handle_advertisement(const sim::Message& message,
                            xml::Reader& document);
  void handle_send_failure(sim::EndpointId to, const std::string& payload);
  void pull_from_neighbours();
  void push_to_neighbours();
  /// Arms the periodic pull from `start`; the chain ends at the next crash.
  void start_pulls(SimTime start);
  /// Executes `request` here.  `hops_before` is the hop count the request
  /// arrived with, before discovery adds this agent to `visited`.
  void dispatch_local(Request request, std::uint64_t hops_before);
  void forward(Request request, Agent* to, bool final_dispatch);
  void note_strict_drop(const Request& request, std::uint64_t hops);
  /// Migration trigger, run after each advertisement upsert: when this
  /// agent is overloaded and the freshly described *direct neighbour* is
  /// underloaded, re-home up to kMigrationBatch still-queued tasks.
  void maybe_migrate(AgentId described);
  [[nodiscard]] std::optional<AgentId> neighbour_for_endpoint(
      sim::EndpointId endpoint) const;
  [[nodiscard]] Agent* neighbour_by_id(AgentId id) const;
  [[nodiscard]] bool already_visited(const Request& request,
                                     AgentId agent) const;
  /// t_x(request's application, k nodes of `info`'s platform) for
  /// k = 1..info.nproc; nullopt for an unknown application or hardware
  /// name.  Counts the entries into table_reads_.
  [[nodiscard]] std::optional<std::span<const double>> prediction_row(
      const ServiceInfo& info, const Request& request) const;

  sim::Engine& engine_;
  sim::Network& network_;
  const pace::PredictionTable& predictions_;
  const pace::ApplicationCatalogue& catalogue_;
  const SystemConfig& grid_;
  AgentConfig config_;
  sched::LocalScheduler& scheduler_;
  ReliableLink link_;
  bool alive_ = true;
  /// Incremented by crash(): a pull tick armed in an earlier epoch ends
  /// its chain without pulling.
  std::uint64_t pull_epoch_ = 0;
  sim::EndpointId endpoint_ = 0;
  Agent* parent_ = nullptr;
  std::vector<Agent*> children_;
  CapabilityTable act_;
  AgentStats stats_;
  /// Reply routing for locally-executing tasks (task -> origin, email).
  struct PendingResult {
    TaskId task;
    sim::EndpointId origin;
    std::string email;
  };
  std::vector<PendingResult> pending_results_;
  /// Retained copies of locally queued requests (migration only): filled
  /// on dispatch, erased on completion/cancel/crash.  A copy whose task
  /// already started is detected lazily by LocalScheduler::cancel failing.
  std::vector<Request> queue_copies_;
  std::function<void(TaskId)> drop_sink_;
  mutable std::uint64_t table_reads_ = 0;
};

}  // namespace gridlb::agents
