// The user portal (paper §3.2, Fig. 6).
//
// Users submit application-execution requests destined for the grid
// through the portal; each request names the application (binary + PACE
// model), the required environment, the deadline and contact information.
// The portal is itself a network endpoint: requests travel to the chosen
// entry agent as Fig. 6 XML documents over the simulated network, exactly
// like inter-agent traffic.
#pragma once

#include <string>
#include <vector>

#include "agents/agent.hpp"
#include "metrics/metrics.hpp"
#include "pace/application_model.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"

namespace gridlb::agents {

/// What a user asked the portal for, kept so a stranded task can be
/// re-discovered.
struct Submission {
  std::string app_name;
  SimTime deadline = 0.0;
  std::string environment;
  std::string email;
};

/// The request document for `task`: the submission's fields, the binary,
/// input and model paths derived from the application name, and `origin`,
/// the endpoint the result goes back to.
[[nodiscard]] Request make_request(TaskId task, const Submission& submission,
                                   sim::EndpointId origin);

class Portal {
 public:
  /// `collector` may be null.  `reliable` turns on reliable delivery of
  /// the request documents (and duplicate suppression of retransmitted
  /// results); false, traffic is byte-identical to the lossless protocol.
  Portal(sim::Engine& engine, sim::Network& network,
         const pace::ApplicationCatalogue& catalogue,
         metrics::MetricsCollector* collector, bool reliable = false);

  /// Sizes the submission list for `submissions` requests up front.
  void reserve(std::size_t submissions) { submissions_.reserve(submissions); }

  /// Submits one request to `entry` now.  `deadline` is absolute
  /// simulation time.  Returns the assigned task id.
  TaskId submit(Agent& entry, const std::string& app_name, SimTime deadline,
                const std::string& environment = "test",
                const std::string& email = "user@gridlb.sim");

  /// Where requests go when their entry agent is unreachable or a crash
  /// strands them: typically the (churn-protected) hierarchy head.
  void set_fallback_entry(Agent* entry) { fallback_ = entry; }

  /// Re-discovers a previously submitted task (same task id — the original
  /// submission never executed) through the fallback entry.
  void resubmit(TaskId task);

  [[nodiscard]] std::uint64_t tasks_resubmitted() const {
    return resubmitted_;
  }
  [[nodiscard]] const LinkStats& link_stats() const { return link_.stats(); }
  [[nodiscard]] sim::EndpointId endpoint() const { return endpoint_; }

  /// Execution results delivered so far.
  [[nodiscard]] std::uint64_t results_received() const {
    return results_received_;
  }

 private:
  void on_message(const sim::Message& message);
  void send_request(const Request& request, sim::EndpointId to);

  sim::Engine& engine_;
  sim::Network& network_;
  const pace::ApplicationCatalogue& catalogue_;
  metrics::MetricsCollector* collector_;
  ReliableLink link_;
  sim::EndpointId endpoint_;
  Agent* fallback_ = nullptr;
  std::uint64_t resubmitted_ = 0;
  std::uint64_t results_received_ = 0;
  std::vector<Submission> submissions_;  ///< task t at index t - 1
};

}  // namespace gridlb::agents
