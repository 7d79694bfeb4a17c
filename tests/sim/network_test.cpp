#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"

namespace gridlb::sim {
namespace {

struct NetworkFixture : ::testing::Test {
  Engine engine;
  Network network{engine, 0.05};
  std::vector<Message> inbox_a;
  std::vector<Message> inbox_b;
  std::vector<SimTime> arrivals_b;
  EndpointId a = network.register_endpoint(
      [this](const Message& m) { inbox_a.push_back(m); });
  EndpointId b = network.register_endpoint([this](const Message& m) {
    inbox_b.push_back(m);
    arrivals_b.push_back(engine.now());
  });
};

TEST_F(NetworkFixture, DeliversAfterLatency) {
  network.send(a, b, "hello");
  EXPECT_TRUE(inbox_b.empty());
  engine.run();
  ASSERT_EQ(inbox_b.size(), 1u);
  EXPECT_EQ(inbox_b[0].payload, "hello");
  EXPECT_DOUBLE_EQ(arrivals_b[0], 0.05);
  EXPECT_EQ(inbox_b[0].from, a);
  EXPECT_EQ(inbox_b[0].to, b);
}

TEST_F(NetworkFixture, SelfSendWorks) {
  network.send(a, a, "loopback");
  engine.run();
  ASSERT_EQ(inbox_a.size(), 1u);
  EXPECT_EQ(inbox_a[0].payload, "loopback");
}

TEST_F(NetworkFixture, PreservesSendOrderAtEqualTimes) {
  network.send(a, b, "first");
  network.send(a, b, "second");
  engine.run();
  ASSERT_EQ(inbox_b.size(), 2u);
  EXPECT_EQ(inbox_b[0].payload, "first");
  EXPECT_EQ(inbox_b[1].payload, "second");
}

TEST_F(NetworkFixture, CountsTraffic) {
  network.send(a, b, "12345");
  network.send(b, a, "123");
  engine.run();
  EXPECT_EQ(network.total_messages(), 2u);
  EXPECT_EQ(network.total_bytes(), 8u);
}

TEST_F(NetworkFixture, RejectsUnknownEndpoints) {
  EXPECT_THROW(network.send(a, 99, "x"), AssertionError);
  EXPECT_THROW(network.send(99, b, "x"), AssertionError);
  EXPECT_THROW(network.set_endpoint_up(99, false), AssertionError);
}

TEST(Network, ZeroLatencyDeliversSameTimestamp) {
  Engine engine;
  Network network(engine, 0.0);
  SimTime delivered = kNoTime;
  const EndpointId a = network.register_endpoint(
      [&](const Message&) { delivered = engine.now(); });
  engine.schedule_at(3.0, [&]() { network.send(a, a, "x"); });
  engine.run();
  EXPECT_EQ(delivered, 3.0);
}

TEST(Network, RejectsNegativeLatency) {
  Engine engine;
  EXPECT_THROW(Network(engine, -1.0), AssertionError);
}

TEST(Network, RejectsNullHandler) {
  Engine engine;
  Network network(engine, 0.0);
  EXPECT_THROW(network.register_endpoint(nullptr), AssertionError);
}

TEST(Network, HandlerCanSendReply) {
  Engine engine;
  Network network(engine, 0.1);
  std::vector<std::string> log;
  EndpointId a = 0;
  EndpointId b = 0;
  a = network.register_endpoint([&](const Message& m) {
    log.push_back("a got " + m.payload);
  });
  b = network.register_endpoint([&](const Message& m) {
    log.push_back("b got " + m.payload);
    network.send(b, m.from, "pong");
  });
  network.send(a, b, "ping");
  engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "b got ping");
  EXPECT_EQ(log[1], "a got pong");
  EXPECT_EQ(engine.now(), 0.2);
}

TEST(Network, RepliesSentDuringADeliveryKeepEveryPayload) {
  // A reply is parked while the message being delivered has just left its
  // slot, so the reply may reuse that slot; neither payload may change.
  Engine engine;
  Network network(engine, 0.1);
  std::vector<std::string> log;
  EndpointId b = 0;
  const EndpointId a = network.register_endpoint(
      [&](const Message& m) { log.push_back("a got " + m.payload); });
  b = network.register_endpoint([&](const Message& m) {
    network.send(b, a, m.payload + " reply");
    log.push_back("b got " + m.payload);
  });
  network.send(a, b, std::string(40, 'x'));
  network.send(a, b, "second");
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{
                     "b got " + std::string(40, 'x'), "b got second",
                     "a got " + std::string(40, 'x') + " reply",
                     "a got second reply"}));
}

}  // namespace
}  // namespace gridlb::sim
