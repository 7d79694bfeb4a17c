// Reliable delivery over the unreliable simulated network.
//
// The paper's agents assume TCP underneath; once sim::Network can drop
// messages (DESIGN.md §10), the agent protocol needs its own guarantee.
// ReliableLink adds one to any endpoint, Fig. 5/6 documents unchanged
// except for bookkeeping attributes on the root element:
//
//   * every reliable send stamps a globally unique `msgid` attribute and
//     arms an acknowledgement timeout;
//   * receivers acknowledge every msgid with a tiny
//     `<agentgrid type="ack" msgid="…"/>` document (acks are themselves
//     unreliable — a lost ack simply provokes one more retransmission);
//   * an unacknowledged message is retransmitted with bounded exponential
//     backoff; after kMaxAttempts transmissions the sender gives up and
//     invokes the send's failure callback (e.g. to reroute a request away
//     from a suspected-dead neighbour);
//   * receivers remember every msgid they have delivered and suppress
//     duplicates (re-acking them), so at-least-once transport yields
//     effectively-once processing.
//
// An unreliable link is a transparent pass-through: sends are
// byte-identical to a plain network_.send (no msgid attribute, no
// acks, no timers), which is what keeps the zero-fault experiment results
// bit-for-bit identical to the pre-fault implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "xml/xml.hpp"

namespace gridlb::agents {

/// Retry/timeout/backoff of every reliable sender (DESIGN.md §10).
inline constexpr double kAckTimeout = 0.5;  ///< first ack timeout, seconds
inline constexpr double kBackoff = 2.0;     ///< timeout multiplier per retry
inline constexpr double kMaxTimeout = 8.0;  ///< ceiling of the backoff
inline constexpr int kMaxAttempts = 5;  ///< transmissions, the first included

/// Reliability bookkeeping of one link.
struct LinkStats {
  std::uint64_t reliable_sent = 0;  ///< first transmissions with a msgid
  std::uint64_t retries = 0;        ///< retransmissions after a timeout
  std::uint64_t expired = 0;        ///< sends that exhausted kMaxAttempts
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t duplicates_suppressed = 0;
};

class ReliableLink {
 public:
  /// Invoked (once) when a reliable send exhausts its retry budget.
  /// `payload` is the original document, msgid attribute included.
  using FailureFn =
      std::function<void(sim::EndpointId to, const std::string& payload)>;

  /// `reliable` false makes the link a plain pass-through.
  ReliableLink(sim::Engine& engine, sim::Network& network, bool reliable);

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  /// The owning endpoint; must be set (once) before the first send.
  void set_self(sim::EndpointId self) { self_ = self; }

  /// Sends a written agentgrid document.  Unreliable: plain passthrough.
  /// Reliable: stamps a msgid on its root first, then transmits and
  /// retries until acked or the attempt budget runs out (then calls
  /// `on_failure`, if given).
  void send(sim::EndpointId to, std::string payload,
            FailureFn on_failure = nullptr);

  /// Inbound filter over the message and its parsed `document`; the
  /// endpoint handler must call this first.
  ///   kConsumed — the message was an ack or a duplicate; do not process.
  ///   kDeliver  — fresh traffic (acked if it carried a msgid); process it.
  enum class Inbound { kDeliver, kConsumed };
  Inbound on_message(const sim::Message& message,
                     const xml::Element& document);

  /// Drops all in-flight sends and their timers without invoking failure
  /// callbacks — the state a crashing process loses.  Delivered-msgid
  /// memory survives (the paper's agents would keep it in stable storage);
  /// forgetting it would let a retransmission double-execute a task.
  /// Returns the undelivered payloads in send order so the owner can
  /// recover what the crash would otherwise black-hole (a forwarded
  /// request dying with its forwarder).
  std::vector<std::string> reset();

  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }

 private:
  struct Pending {
    sim::EndpointId to = 0;
    std::string payload;   ///< retransmitted verbatim (same msgid)
    int attempts = 1;
    double timeout = 0.0;  ///< the currently armed timeout
    sim::EventId timer = 0;
    FailureFn on_failure;
  };

  void arm_timer(std::uint64_t msgid);
  void on_timeout(std::uint64_t msgid);

  sim::Engine& engine_;
  sim::Network& network_;
  bool reliable_;
  sim::EndpointId self_ = 0;
  std::uint64_t next_serial_ = 0;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::unordered_set<std::uint64_t> delivered_;
  LinkStats stats_;
};

}  // namespace gridlb::agents
