#include "sim/network.hpp"

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace gridlb::sim {

namespace {
/// `extra` payload of a kMessageDropped trace event.  The values are part
/// of the exported event format, so they never change (1 is unassigned).
enum DropReason : std::uint32_t {
  kDropRandom = 0,
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
}

EndpointId Network::register_endpoint(Handler handler) {
  GRIDLB_REQUIRE(handler != nullptr, "endpoint handler must be set");
  endpoints_.push_back(Endpoint{.handler = std::move(handler)});
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

void Network::set_endpoint_up(EndpointId id, bool up) {
  GRIDLB_REQUIRE(id < endpoints_.size(), "unknown endpoint");
  endpoints_[id].up = up;
}

void Network::send(EndpointId from, EndpointId to, std::string payload) {
  GRIDLB_REQUIRE(from < endpoints_.size(), "unknown sender endpoint");
  GRIDLB_REQUIRE(to < endpoints_.size(), "unknown recipient endpoint");
  const SimTime now = engine_.now();

  const std::uint64_t ordinal = endpoints_[from].sent++;
  messages_ += 1;
  bytes_ += payload.size();

  double latency = latency_;
  if (plan_.active()) {
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

  const std::uint32_t slot =
      in_flight_.park(Message{from, to, std::move(payload)});
  engine_.schedule_in(latency, [this, slot]() { deliver(slot); });
}

void Network::deliver(std::uint32_t slot) {
  // Taken out first: the handler may send, and so park, in turn.
  const Message message = in_flight_.take(slot);
  Endpoint& destination = endpoints_[message.to];
  if (!destination.up) {
    ++faults_.dropped_endpoint_down;
    obs::emit({.at = engine_.now(),
               .kind = obs::EventKind::kMessageDropped,
               .extra = kDropEndpointDown,
               .a = static_cast<double>(message.from),
               .b = static_cast<double>(message.to)});
    return;
  }
  destination.handler(message);
}

}  // namespace gridlb::sim
