#include "agents/reliable.hpp"

#include <algorithm>

#include "agents/numbers.hpp"
#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace gridlb::agents {

static_assert(kAckTimeout > 0.0, "ack timeout must be positive");
static_assert(kBackoff >= 1.0, "backoff must not shrink timeouts");
static_assert(kMaxTimeout >= kAckTimeout,
              "timeout ceiling below the initial timeout");
static_assert(kMaxAttempts >= 1, "need at least one attempt");

ReliableLink::ReliableLink(sim::Engine& engine, sim::Network& network,
                           bool reliable)
    : engine_(engine), network_(network), reliable_(reliable) {}

void ReliableLink::send(sim::EndpointId to, std::string payload,
                        FailureFn on_failure) {
  if (!reliable_) {
    network_.send(self_, to, std::move(payload));
    return;
  }
  // Globally unique: the owning endpoint in the high bits, a serial below.
  const std::uint64_t msgid =
      (static_cast<std::uint64_t>(self_) << 32) | (next_serial_++ & 0xFFFFFFFF);
  xml::stamp_root(payload, "msgid", NumberText(msgid).view());

  Pending pending;
  pending.to = to;
  pending.payload = payload;
  pending.timeout = kAckTimeout;
  pending.on_failure = std::move(on_failure);
  pending_.emplace(msgid, std::move(pending));
  ++stats_.reliable_sent;
  network_.send(self_, to, std::move(payload));
  arm_timer(msgid);
}

void ReliableLink::arm_timer(std::uint64_t msgid) {
  Pending& pending = pending_.at(msgid);
  pending.timer = engine_.schedule_in(
      pending.timeout, [this, msgid]() { on_timeout(msgid); });
}

void ReliableLink::on_timeout(std::uint64_t msgid) {
  const auto it = pending_.find(msgid);
  if (it == pending_.end()) return;  // acked in the meantime
  Pending& pending = it->second;
  if (pending.attempts >= kMaxAttempts) {
    ++stats_.expired;
    obs::emit({.at = engine_.now(),
               .kind = obs::EventKind::kMessageExpired,
               .extra = static_cast<std::uint32_t>(pending.attempts),
               .a = static_cast<double>(self_),
               .b = static_cast<double>(pending.to)});
    // Detach before the callback: it may reroute through this same link.
    const FailureFn on_failure = std::move(pending.on_failure);
    const sim::EndpointId to = pending.to;
    const std::string payload = std::move(pending.payload);
    pending_.erase(it);
    if (on_failure) on_failure(to, payload);
    return;
  }
  ++pending.attempts;
  ++stats_.retries;
  pending.timeout = std::min(pending.timeout * kBackoff, kMaxTimeout);
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kMessageRetry,
             .extra = static_cast<std::uint32_t>(pending.attempts),
             .a = static_cast<double>(self_),
             .b = static_cast<double>(pending.to)});
  network_.send(self_, pending.to, pending.payload);
  arm_timer(msgid);
}

ReliableLink::Inbound ReliableLink::on_message(const sim::Message& message,
                                               const xml::Reader& document) {
  if (!reliable_) return Inbound::kDeliver;
  if (document.attribute("type") == "ack") {
    const auto msgid_text = document.attribute("msgid");
    GRIDLB_REQUIRE(msgid_text.has_value(), "ack lacks a msgid");
    const auto msgid = read_number<std::uint64_t>(*msgid_text, "msgid");
    const auto it = pending_.find(msgid);
    if (it != pending_.end()) {
      ++stats_.acks_received;
      engine_.cancel(it->second.timer);
      pending_.erase(it);
    }
    return Inbound::kConsumed;
  }
  const auto msgid_text = document.attribute("msgid");
  if (!msgid_text) return Inbound::kDeliver;  // unreliable traffic
  const auto msgid = read_number<std::uint64_t>(*msgid_text, "msgid");
  xml::Writer ack(64);
  ack.open("agentgrid");
  ack.attribute("type", "ack");
  ack.attribute("msgid", *msgid_text);
  ack.close();
  ++stats_.acks_sent;
  network_.send(self_, message.from, std::move(ack).finish());
  if (!delivered_.insert(msgid).second) {
    ++stats_.duplicates_suppressed;
    obs::emit({.at = engine_.now(),
               .kind = obs::EventKind::kDuplicateSuppressed,
               .a = static_cast<double>(message.from),
               .b = static_cast<double>(self_)});
    return Inbound::kConsumed;
  }
  return Inbound::kDeliver;
}

std::vector<std::string> ReliableLink::reset() {
  std::vector<std::pair<std::uint64_t, std::string>> undelivered;
  undelivered.reserve(pending_.size());
  for (auto& [msgid, pending] : pending_) {
    engine_.cancel(pending.timer);
    undelivered.emplace_back(msgid, std::move(pending.payload));
  }
  pending_.clear();
  // Send order (serials ascend): unordered_map iteration must not leak
  // into the simulation's event order.
  std::sort(undelivered.begin(), undelivered.end());
  std::vector<std::string> payloads;
  payloads.reserve(undelivered.size());
  for (auto& [msgid, payload] : undelivered) {
    payloads.push_back(std::move(payload));
  }
  return payloads;
}

}  // namespace gridlb::agents
