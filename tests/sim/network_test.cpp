#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/assert.hpp"

namespace gridlb::sim {
namespace {

struct NetworkFixture : ::testing::Test {
  Engine engine;
  Network network{engine, 0.05};
  std::vector<Message> inbox_a;
  std::vector<Message> inbox_b;
  EndpointId a = network.register_endpoint(
      "a.gridlb.sim", 1000, [this](const Message& m) { inbox_a.push_back(m); });
  EndpointId b = network.register_endpoint(
      "b.gridlb.sim", 1001, [this](const Message& m) { inbox_b.push_back(m); });
};

TEST_F(NetworkFixture, DeliversAfterLatency) {
  network.send(a, b, "hello");
  EXPECT_TRUE(inbox_b.empty());
  engine.run();
  ASSERT_EQ(inbox_b.size(), 1u);
  EXPECT_EQ(inbox_b[0].payload, "hello");
  EXPECT_EQ(inbox_b[0].sent_at, 0.0);
  EXPECT_DOUBLE_EQ(inbox_b[0].delivered_at, 0.05);
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
  EXPECT_EQ(network.stats(a).messages_sent, 1u);
  EXPECT_EQ(network.stats(a).bytes_sent, 5u);
  EXPECT_EQ(network.stats(a).messages_received, 1u);
  EXPECT_EQ(network.stats(a).bytes_received, 3u);
  EXPECT_EQ(network.stats(b).messages_received, 1u);
}

TEST_F(NetworkFixture, IdentityLookup) {
  EXPECT_EQ(network.address(a), "a.gridlb.sim");
  EXPECT_EQ(network.port(b), 1001);
  EXPECT_EQ(network.endpoint_count(), 2u);
}

TEST_F(NetworkFixture, RejectsUnknownEndpoints) {
  EXPECT_THROW(network.send(a, 99, "x"), AssertionError);
  EXPECT_THROW(network.send(99, b, "x"), AssertionError);
  EXPECT_THROW((void)network.stats(99), AssertionError);
}

TEST(Network, ZeroLatencyDeliversSameTimestamp) {
  Engine engine;
  Network network(engine, 0.0);
  SimTime delivered = kNoTime;
  const EndpointId a = network.register_endpoint(
      "a", 1, [&](const Message& m) { delivered = m.delivered_at; });
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
  EXPECT_THROW(network.register_endpoint("a", 1, nullptr), AssertionError);
}

TEST(Network, HandlerCanSendReply) {
  Engine engine;
  Network network(engine, 0.1);
  std::vector<std::string> log;
  EndpointId a = 0;
  EndpointId b = 0;
  a = network.register_endpoint("a", 1, [&](const Message& m) {
    log.push_back("a got " + m.payload);
  });
  b = network.register_endpoint("b", 2, [&](const Message& m) {
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

}  // namespace
}  // namespace gridlb::sim
