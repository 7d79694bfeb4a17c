// Simulated message-passing network.
//
// The paper's agents are Java processes exchanging XML documents over TCP
// (each identified by an address/port tuple, Fig. 5).  Here an endpoint is
// registered with the same address/port identity and a delivery handler;
// `send` delivers the payload after a configurable latency through the
// discrete-event engine.  Message and byte counters support the
// scalability ablation ("the system has no central structure which might
// act as a potential bottleneck").
//
// Fault injection (DESIGN.md §10): an optional, seeded FaultPlan makes the
// network unreliable — per-message Bernoulli loss, uniform latency jitter,
// timed partitions, and per-endpoint outages (crashed agents).  All knobs
// default to "perfect delivery"; with an inactive plan `send` performs no
// RNG draws and the delivery schedule is bit-for-bit identical to a
// network built without a plan.
//
// Sharding (DESIGN.md §13): every endpoint is pinned to the shard that was
// current at registration time, and all mutable accounting (traffic stats,
// fault counters) lives per endpoint so each shard only writes state it
// owns.  Fault draws are stateless — each message's loss/jitter comes from
// a hash of (plan seed, sender, sender's send ordinal), not from a shared
// stream — so the fault pattern is independent of the global send
// interleaving and therefore of the shard count.  Every delivery routes
// through the shard coordinator, which keeps same-shard ones local and is
// what turns the network latency into the conservative-lookahead window
// for cross-shard ones.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/sharded_engine.hpp"

namespace gridlb::sim {

/// Opaque endpoint handle (dense index into the endpoint table).
using EndpointId = std::uint32_t;

/// One delivered message.
struct Message {
  EndpointId from = 0;
  EndpointId to = 0;
  std::string payload;   ///< Serialised XML document in the agent protocol.
  SimTime sent_at = 0.0;
  SimTime delivered_at = 0.0;
};

/// Per-endpoint traffic statistics.
struct EndpointStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

/// Deterministic network-fault model.  Each message's faults are drawn
/// from a stateless hash of (seed, sender, sender send ordinal), so a
/// fixed (plan, workload) pair yields the same losses and jitters on every
/// run — at any shard count.
struct FaultPlan {
  /// Probability that any one message is silently lost in transit.
  double drop_prob = 0.0;
  /// Extra one-way delay, uniform in [0, jitter_max) seconds.
  double jitter_max = 0.0;
  std::uint64_t seed = 1;  ///< fault RNG stream (independent of workload)
  /// A timed partition: while `from <= now < until`, messages crossing the
  /// island boundary (one side's address inside `island`, the other's
  /// outside) are dropped in both directions.
  struct Partition {
    std::vector<std::string> island;  ///< endpoint addresses on one side
    SimTime from = 0.0;
    SimTime until = 0.0;
  };
  std::vector<Partition> partitions;

  /// True when any fault source is configured; an inactive plan keeps the
  /// network on the perfect-delivery path (no RNG draws at all).
  [[nodiscard]] bool active() const {
    return drop_prob > 0.0 || jitter_max > 0.0 || !partitions.empty();
  }

  /// Throws AssertionError unless every knob is in range.
  void validate() const;
};

/// Injected-fault accounting, network-wide.
struct FaultStats {
  std::uint64_t dropped_random = 0;     ///< Bernoulli losses
  std::uint64_t dropped_partition = 0;  ///< partition-window losses
  std::uint64_t dropped_endpoint_down = 0;  ///< recipient was down
  [[nodiscard]] std::uint64_t dropped_total() const {
    return dropped_random + dropped_partition + dropped_endpoint_down;
  }
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  /// `latency` is the one-way delivery delay applied to every message
  /// (it must not be below `engine`'s lookahead); `plan` (optional)
  /// injects deterministic faults on top of it.  Deliveries are posted to
  /// the recipient's shard of `engine`.
  Network(ShardedEngine& engine, double latency_seconds, FaultPlan plan = {});

  /// Shard assigned to endpoints registered from now on.
  void set_registration_shard(std::size_t shard) {
    registration_shard_ = shard;
  }

  /// Registers an endpoint; `address`/`port` mirror the identity tuple the
  /// paper's documents carry.  The handler runs when a message arrives.
  EndpointId register_endpoint(std::string address, int port, Handler handler);

  /// Queues `payload` for delivery to `to` after the network latency
  /// (plus jitter).  Under an active fault plan the message may instead be
  /// dropped; senders that need delivery guarantees must retry (see
  /// agents::ReliableLink).
  void send(EndpointId from, EndpointId to, std::string payload);

  /// Marks an endpoint up or down (a crashed agent process).  Messages
  /// arriving at a down endpoint are dropped at delivery time, so traffic
  /// already in flight when the endpoint fails is lost with it.
  void set_endpoint_up(EndpointId id, bool up);
  [[nodiscard]] bool endpoint_up(EndpointId id) const;

  [[nodiscard]] double latency() const { return latency_; }
  [[nodiscard]] std::size_t endpoint_count() const { return endpoints_.size(); }
  [[nodiscard]] const EndpointStats& stats(EndpointId id) const;
  [[nodiscard]] std::size_t endpoint_shard(EndpointId id) const;
  /// Network-wide totals, summed over the per-endpoint accounting.
  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] const FaultPlan& fault_plan() const { return plan_; }
  [[nodiscard]] FaultStats fault_stats() const;

  /// Identity lookup for serialising Fig. 5 / Fig. 6 documents.
  [[nodiscard]] const std::string& address(EndpointId id) const;
  [[nodiscard]] int port(EndpointId id) const;

 private:
  struct Endpoint {
    std::string address;
    int port;
    Handler handler;
    EndpointStats stats;
    // Random/partition drops are charged to the sender, endpoint-down
    // drops to the recipient, so each counter has exactly one writing
    // shard.
    FaultStats faults;
    std::size_t shard = 0;
    bool up = true;
  };

  /// True if a partition window at time `now` separates the two endpoints.
  [[nodiscard]] bool partitioned(EndpointId from, EndpointId to,
                                 SimTime now) const;

  ShardedEngine& engine_;
  std::size_t registration_shard_ = 0;
  double latency_;
  FaultPlan plan_;
  std::vector<Endpoint> endpoints_;
};

}  // namespace gridlb::sim
