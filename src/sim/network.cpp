#include "sim/network.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace gridlb::sim {

namespace {
/// `extra` payload of a kMessageDropped trace event.
enum DropReason : std::uint32_t {
  kDropRandom = 0,
  kDropPartition = 1,
  kDropEndpointDown = 2,
};

/// Stateless per-message fault seed: injective over (sender, ordinal) for
/// any realistic endpoint count, then thoroughly mixed by Rng's splitmix64
/// seeding.  No draw depends on the global interleaving of sends.
std::uint64_t message_seed(std::uint64_t plan_seed, EndpointId from,
                           std::uint64_t ordinal) {
  return plan_seed ^ (static_cast<std::uint64_t>(from) << 32) ^ ordinal;
}
}  // namespace

Network::Network(Engine& engine, double latency_seconds, FaultPlan plan)
    : engine_(engine), latency_(latency_seconds), plan_(std::move(plan)) {
  GRIDLB_REQUIRE(latency_seconds >= 0.0, "latency must be non-negative");
  plan_.validate();
}

void FaultPlan::validate() const {
  GRIDLB_REQUIRE(drop_prob >= 0.0 && drop_prob < 1.0,
                 "drop probability must lie in [0, 1)");
  GRIDLB_REQUIRE(jitter_max >= 0.0, "jitter must be non-negative");
  for (const Partition& partition : partitions) {
    GRIDLB_REQUIRE(partition.until >= partition.from,
                   "partition window must not end before it starts");
  }
}

EndpointId Network::register_endpoint(std::string address, int port,
                                      Handler handler) {
  GRIDLB_REQUIRE(handler != nullptr, "endpoint handler must be set");
  endpoints_.push_back(
      Endpoint{std::move(address), port, std::move(handler), {}, true});
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

void Network::set_endpoint_up(EndpointId id, bool up) {
  GRIDLB_REQUIRE(id < endpoints_.size(), "unknown endpoint");
  endpoints_[id].up = up;
}

bool Network::endpoint_up(EndpointId id) const {
  GRIDLB_REQUIRE(id < endpoints_.size(), "unknown endpoint");
  return endpoints_[id].up;
}

bool Network::partitioned(EndpointId from, EndpointId to, SimTime now) const {
  for (const FaultPlan::Partition& partition : plan_.partitions) {
    if (now < partition.from || now >= partition.until) continue;
    const auto inside = [&partition](const std::string& address) {
      return std::find(partition.island.begin(), partition.island.end(),
                       address) != partition.island.end();
    };
    if (inside(endpoints_[from].address) != inside(endpoints_[to].address)) {
      return true;
    }
  }
  return false;
}

void Network::send(EndpointId from, EndpointId to, std::string payload) {
  GRIDLB_REQUIRE(from < endpoints_.size(), "unknown sender endpoint");
  GRIDLB_REQUIRE(to < endpoints_.size(), "unknown recipient endpoint");
  const SimTime now = engine_.now();

  Endpoint& sender = endpoints_[from];
  const std::uint64_t ordinal = sender.stats.messages_sent;
  const auto size = static_cast<std::uint64_t>(payload.size());
  sender.stats.messages_sent += 1;
  sender.stats.bytes_sent += size;

  double latency = latency_;
  if (plan_.active()) {
    if (partitioned(from, to, now)) {
      ++faults_.dropped_partition;
      obs::emit({.at = now,
                 .kind = obs::EventKind::kMessageDropped,
                 .extra = kDropPartition,
                 .a = static_cast<double>(from),
                 .b = static_cast<double>(to)});
      return;
    }
    if (plan_.drop_prob > 0.0 || plan_.jitter_max > 0.0) {
      Rng draw(message_seed(plan_.seed, from, ordinal));
      if (plan_.drop_prob > 0.0 && draw.chance(plan_.drop_prob)) {
        ++faults_.dropped_random;
        obs::emit({.at = now,
                   .kind = obs::EventKind::kMessageDropped,
                   .extra = kDropRandom,
                   .a = static_cast<double>(from),
                   .b = static_cast<double>(to)});
        return;
      }
      if (plan_.jitter_max > 0.0) {
        latency += draw.uniform(0.0, plan_.jitter_max);
      }
    }
  }

  Message message;
  message.from = from;
  message.to = to;
  message.payload = std::move(payload);
  message.sent_at = now;
  auto deliver = [this, message = std::move(message)]() mutable {
    Endpoint& destination = endpoints_[message.to];
    const SimTime arrival = engine_.now();
    if (!destination.up) {
      ++faults_.dropped_endpoint_down;
      obs::emit({.at = arrival,
                 .kind = obs::EventKind::kMessageDropped,
                 .extra = kDropEndpointDown,
                 .a = static_cast<double>(message.from),
                 .b = static_cast<double>(message.to)});
      return;
    }
    message.delivered_at = arrival;
    destination.stats.messages_received += 1;
    destination.stats.bytes_received += message.payload.size();
    destination.handler(message);
  };
  engine_.schedule_in(latency, std::move(deliver));
}

const EndpointStats& Network::stats(EndpointId id) const {
  GRIDLB_REQUIRE(id < endpoints_.size(), "unknown endpoint");
  return endpoints_[id].stats;
}

std::uint64_t Network::total_messages() const {
  std::uint64_t total = 0;
  for (const Endpoint& endpoint : endpoints_) {
    total += endpoint.stats.messages_sent;
  }
  return total;
}

std::uint64_t Network::total_bytes() const {
  std::uint64_t total = 0;
  for (const Endpoint& endpoint : endpoints_) {
    total += endpoint.stats.bytes_sent;
  }
  return total;
}

const std::string& Network::address(EndpointId id) const {
  GRIDLB_REQUIRE(id < endpoints_.size(), "unknown endpoint");
  return endpoints_[id].address;
}

int Network::port(EndpointId id) const {
  GRIDLB_REQUIRE(id < endpoints_.size(), "unknown endpoint");
  return endpoints_[id].port;
}

}  // namespace gridlb::sim
