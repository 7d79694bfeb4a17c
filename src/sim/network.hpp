// Simulated message-passing network.
//
// The paper's agents are Java processes exchanging XML documents over TCP
// (each identified by an address/port tuple, Fig. 5, which the documents
// themselves carry).  Here an endpoint is a delivery handler; `send`
// delivers the payload after a configurable latency through the
// discrete-event engine.  Network-wide message and byte totals support the
// scalability ablation ("the system has no central structure which might
// act as a potential bottleneck").
//
// Fault injection (DESIGN.md §10): an optional, seeded FaultPlan makes the
// network unreliable — per-message Bernoulli loss and uniform latency
// jitter — and per-endpoint outages model crashed agents.  All knobs
// default to "perfect delivery"; with an inactive plan `send` performs no
// RNG draws and the delivery schedule is bit-for-bit identical to a
// network built without a plan.
//
// Fault draws are stateless: each message's loss/jitter comes from a hash
// of (plan seed, sender, sender's send ordinal), not from a shared stream,
// so the fault pattern depends on no global send interleaving.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/slab.hpp"

namespace gridlb::sim {

/// Opaque endpoint handle (dense index into the endpoint table).
using EndpointId = std::uint32_t;

/// One delivered message.
struct Message {
  EndpointId from = 0;
  EndpointId to = 0;
  std::string payload;   ///< Serialised XML document in the agent protocol.
};

/// Deterministic network-fault model.  Each message's faults are drawn
/// from a stateless hash of (seed, sender, sender send ordinal), so a
/// fixed (plan, workload) pair yields the same losses and jitters on every
/// run.
struct FaultPlan {
  /// Probability that any one message is silently lost in transit.
  double drop_prob = 0.0;
  /// Extra one-way delay, uniform in [0, jitter_max) seconds.
  double jitter_max = 0.0;
  std::uint64_t seed = 1;  ///< fault RNG stream (independent of workload)

  /// True when any fault source is configured; an inactive plan keeps the
  /// network on the perfect-delivery path (no RNG draws at all).
  [[nodiscard]] bool active() const {
    return drop_prob > 0.0 || jitter_max > 0.0;
  }

  /// Throws AssertionError unless every knob is in range.
  void validate() const;
};

/// Injected-fault accounting, network-wide.
struct FaultStats {
  std::uint64_t dropped_random = 0;         ///< Bernoulli losses
  std::uint64_t dropped_endpoint_down = 0;  ///< recipient was down
  /// Losses the fault plan caused; outage losses at a down endpoint come
  /// from agent churn, not from the plan.
  [[nodiscard]] std::uint64_t dropped_by_plan() const {
    return dropped_random;
  }
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  /// `latency` is the one-way delivery delay applied to every message;
  /// `plan` (optional) injects deterministic faults on top of it.
  /// Deliveries are events on `engine`.
  Network(Engine& engine, double latency_seconds, FaultPlan plan = {});

  /// Registers an endpoint; the handler runs when a message arrives.
  EndpointId register_endpoint(Handler handler);

  /// Queues `payload` for delivery to `to` after the network latency
  /// (plus jitter).  Under an active fault plan the message may instead be
  /// dropped; senders that need delivery guarantees must retry (see
  /// agents::ReliableLink).
  void send(EndpointId from, EndpointId to, std::string payload);

  /// Marks an endpoint up or down (a crashed agent process).  Messages
  /// arriving at a down endpoint are dropped at delivery time, so traffic
  /// already in flight when the endpoint fails is lost with it.
  void set_endpoint_up(EndpointId id, bool up);

  [[nodiscard]] double latency() const { return latency_; }
  /// Messages and payload bytes sent, network-wide (dropped ones too).
  [[nodiscard]] std::uint64_t total_messages() const { return messages_; }
  [[nodiscard]] std::uint64_t total_bytes() const { return bytes_; }
  [[nodiscard]] const FaultStats& fault_stats() const { return faults_; }

 private:
  /// Delivery event of the message parked in `slot`.
  void deliver(std::uint32_t slot);

  struct Endpoint {
    Handler handler;
    std::uint64_t sent = 0;  ///< send ordinal, hashed by the fault draws
    bool up = true;
  };

  Engine& engine_;
  double latency_;
  FaultPlan plan_;
  FaultStats faults_;
  std::vector<Endpoint> endpoints_;
  /// Messages in flight: a delivery closure names its message's slot, so
  /// it fits std::function's inline buffer (sim/slab.hpp).
  Slab<Message> in_flight_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace gridlb::sim
