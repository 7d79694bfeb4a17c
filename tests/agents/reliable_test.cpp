// ReliableLink: msgid stamping, ack-gated retransmission with bounded
// exponential backoff, duplicate suppression, and the unreliable
// passthrough that keeps zero-fault runs bit-for-bit unchanged.
#include "agents/reliable.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "xml/xml.hpp"

namespace gridlb::agents {
namespace {

constexpr double kLatency = 0.05;

/// An agentgrid document of `type`, told apart by its `marker`, and
/// stamped with `msgid` when one is given.
std::string payload_of(const std::string& marker,
                       const std::string& type = "request",
                       const char* msgid = nullptr) {
  xml::Writer document(0);
  document.open("agentgrid");
  document.attribute("type", type);
  document.attribute("marker", marker);
  if (msgid != nullptr) document.attribute("msgid", msgid);
  document.close();
  return std::move(document).finish();
}

/// One endpoint whose handler records arrivals, optionally through a link.
struct Arrivals {
  std::vector<std::string> payloads;
  std::vector<SimTime> times;
};

TEST(ReliableLink, DisabledPolicyIsATransparentPassthrough) {
  sim::Engine engine;
  sim::Network network(engine, kLatency);
  Arrivals arrivals;
  ReliableLink sender(engine, network, false);
  const sim::EndpointId a = network.register_endpoint([](auto&) {});
  const sim::EndpointId b = network.register_endpoint(
      [&arrivals](const sim::Message& m) {
        arrivals.payloads.push_back(m.payload);
      });
  sender.set_self(a);

  const std::string payload = payload_of("plain");
  sender.send(b, payload);
  engine.run();

  // Byte-identical delivery: no msgid attribute, no ack, no bookkeeping.
  ASSERT_EQ(arrivals.payloads.size(), 1u);
  EXPECT_EQ(arrivals.payloads[0], payload);
  EXPECT_EQ(sender.stats().reliable_sent, 0u);
  EXPECT_EQ(sender.in_flight(), 0u);
  EXPECT_EQ(network.total_messages(), 1u);  // no ack on the wire
}

TEST(ReliableLink, AckStopsRetransmission) {
  sim::Engine engine;
  sim::Network network(engine, kLatency);
  Arrivals arrivals;
  ReliableLink sender(engine, network, true);
  ReliableLink receiver(engine, network, true);
  const sim::EndpointId a = network.register_endpoint(
      [&sender](const sim::Message& m) {
        sender.on_message(m, *xml::parse(m.payload));
      });
  const sim::EndpointId b = network.register_endpoint(
      [&receiver, &arrivals](const sim::Message& m) {
        if (receiver.on_message(m, *xml::parse(m.payload)) ==
            ReliableLink::Inbound::kDeliver) {
          arrivals.payloads.push_back(m.payload);
        }
      });
  sender.set_self(a);
  receiver.set_self(b);

  sender.send(b, payload_of("acked"));
  engine.run();

  ASSERT_EQ(arrivals.payloads.size(), 1u);
  const auto document = xml::parse(arrivals.payloads[0]);
  EXPECT_TRUE(document->attribute("msgid").has_value());
  EXPECT_EQ(sender.stats().reliable_sent, 1u);
  EXPECT_EQ(sender.stats().acks_received, 1u);
  EXPECT_EQ(sender.stats().retries, 0u);
  EXPECT_EQ(receiver.stats().acks_sent, 1u);
  EXPECT_EQ(sender.in_flight(), 0u);
}

TEST(ReliableLink, RetriesWithBoundedExponentialBackoffThenFails) {
  sim::Engine engine;
  sim::Network network(engine, kLatency);
  ReliableLink sender(engine, network, true);
  Arrivals arrivals;
  std::vector<std::string> failed;
  const sim::EndpointId a = network.register_endpoint([](auto&) {});
  // The receiver never acks, so every transmission times out.
  const sim::EndpointId b = network.register_endpoint(
      [&arrivals, &engine](const sim::Message& m) {
        arrivals.payloads.push_back(m.payload);
        arrivals.times.push_back(engine.now());
      });
  sender.set_self(a);

  sender.send(b, payload_of("doomed"),
              [&failed](sim::EndpointId, const std::string& payload) {
                failed.push_back(payload);
              });
  engine.run();

  // Transmissions at t=0, then after timeouts 0.5, 1, 2, 4 (doubling from
  // kAckTimeout, capped by kMaxTimeout=8 which is never reached here).
  const std::vector<SimTime> expected = {
      0.0 + kLatency, 0.5 + kLatency, 1.5 + kLatency, 3.5 + kLatency,
      7.5 + kLatency};
  EXPECT_EQ(arrivals.times, expected);
  // Retransmissions are verbatim — same msgid, same bytes.
  for (const std::string& payload : arrivals.payloads) {
    EXPECT_EQ(payload, arrivals.payloads[0]);
  }
  EXPECT_EQ(sender.stats().reliable_sent, 1u);
  EXPECT_EQ(sender.stats().retries, 4u);  // kMaxAttempts=5 incl. the first
  EXPECT_EQ(sender.stats().expired, 1u);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], arrivals.payloads[0]);
  EXPECT_EQ(sender.in_flight(), 0u);
}

TEST(ReliableLink, SuppressesDuplicatesAndReAcks) {
  sim::Engine engine;
  sim::Network network(engine, kLatency);
  ReliableLink receiver(engine, network, true);
  const sim::EndpointId a = network.register_endpoint([](auto&) {});
  const sim::EndpointId b = network.register_endpoint([](auto&) {});
  receiver.set_self(b);

  sim::Message message;
  message.from = a;
  message.to = b;
  message.payload = payload_of("dup", "request", "42");
  const auto document = xml::parse(message.payload);

  // First arrival is fresh; a retransmission of the same msgid must be
  // swallowed but still acknowledged (the first ack may have been lost).
  EXPECT_EQ(receiver.on_message(message, *document),
            ReliableLink::Inbound::kDeliver);
  EXPECT_EQ(receiver.on_message(message, *document),
            ReliableLink::Inbound::kConsumed);
  EXPECT_EQ(receiver.stats().acks_sent, 2u);
  EXPECT_EQ(receiver.stats().duplicates_suppressed, 1u);
}

TEST(ReliableLink, RejectsMalformedMsgid) {
  sim::Engine engine;
  sim::Network network(engine, kLatency);
  ReliableLink receiver(engine, network, true);
  const sim::EndpointId b = network.register_endpoint([](auto&) {});
  receiver.set_self(b);

  // Read through std::stoull, "x" escaped as std::invalid_argument and
  // "-1" wrapped to a valid msgid.
  for (const char* msgid : {"x", "-1", "42junk", ""}) {
    for (const char* type : {"request", "ack"}) {
      sim::Message message;
      message.payload = payload_of("bad", type, msgid);
      const auto document = xml::parse(message.payload);
      EXPECT_THROW(receiver.on_message(message, *document), AssertionError)
          << type << " msgid='" << msgid << "'";
    }
  }
  EXPECT_EQ(receiver.stats().acks_sent, 0u);
}

TEST(ReliableLink, UnreliableTrafficPassesUntouched) {
  sim::Engine engine;
  sim::Network network(engine, kLatency);
  ReliableLink receiver(engine, network, true);
  const sim::EndpointId b = network.register_endpoint([](auto&) {});
  receiver.set_self(b);

  sim::Message message;
  message.payload = payload_of("no msgid");  // e.g. a pull or an ad
  EXPECT_EQ(receiver.on_message(message, *xml::parse(message.payload)),
            ReliableLink::Inbound::kDeliver);
  EXPECT_EQ(receiver.stats().acks_sent, 0u);
}

TEST(ReliableLink, ResetReturnsUndeliveredPayloadsInSendOrder) {
  sim::Engine engine;
  sim::Network network(engine, kLatency);
  ReliableLink sender(engine, network, true);
  const sim::EndpointId a = network.register_endpoint([](auto&) {});
  const sim::EndpointId b =
      network.register_endpoint([](auto&) {});  // never acks
  sender.set_self(a);

  sender.send(b, payload_of("first"));
  sender.send(b, payload_of("second"));
  sender.send(b, payload_of("third"));
  EXPECT_EQ(sender.in_flight(), 3u);

  const std::vector<std::string> undelivered = sender.reset();
  ASSERT_EQ(undelivered.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto document = xml::parse(undelivered[i]);
    const std::vector<std::string> markers = {"first", "second", "third"};
    EXPECT_EQ(document->attribute("marker"), markers[i]);
  }
  EXPECT_EQ(sender.in_flight(), 0u);

  // Cancelled timers must not fire: the run ends with no retransmissions.
  engine.run();
  EXPECT_EQ(sender.stats().retries, 0u);
  EXPECT_EQ(sender.stats().expired, 0u);
}

}  // namespace
}  // namespace gridlb::agents
