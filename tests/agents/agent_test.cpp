#include "agents/agent.hpp"

#include <gtest/gtest.h>

#include "agents/agent_system.hpp"
#include "agents/numbers.hpp"
#include "agents/portal.hpp"
#include "common/assert.hpp"
#include "pace/paper_applications.hpp"
#include "xml/xml.hpp"

namespace gridlb::agents {
namespace {

// A three-agent hierarchy: S1 (SGI, head) -> { S2 (Ultra5), S3 (SPARC2) }.
struct AgentFixture : ::testing::Test {
  sim::Engine engine;
  metrics::MetricsCollector collector;
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();

  SystemConfig base_config() {
    SystemConfig config;
    config.resources = {
        {"S1", pace::HardwareType::kSgiOrigin2000, 16, -1},
        {"S2", pace::HardwareType::kSunUltra5, 16, 0},
        {"S3", pace::HardwareType::kSunSparcStation2, 16, 0},
    };
    return config;
  }

  std::unique_ptr<AgentSystem> make(SystemConfig config) {
    auto system = std::make_unique<AgentSystem>(engine, catalogue,
                                                std::move(config), &collector);
    system->start();
    return system;
  }

  Request make_request(const char* app, SimTime deadline) {
    Request request;
    request.task = TaskId(++next_task);
    request.app_name = app;
    request.environment = "test";
    request.deadline = deadline;
    return request;
  }

  std::uint64_t next_task = 0;

  // The periodic advertisement pull keeps the event queue non-empty
  // forever, so tests drain a bounded horizon instead of engine.run().
  void drain() { engine.run_until(engine.now() + 7200.0); }
};

TEST_F(AgentFixture, ServiceSnapshotDescribesResource) {
  const auto system = make(base_config());
  const ServiceInfo info = system->agent_named("S2").service_snapshot();
  EXPECT_EQ(info.hardware_type, "SunUltra5");
  EXPECT_EQ(info.nproc, 16);
  EXPECT_EQ(info.agent_address, "S2.gridlb.sim");
  EXPECT_EQ(info.environments,
            (std::vector<std::string>{"mpi", "pvm", "test"}));
  EXPECT_DOUBLE_EQ(info.freetime, 0.0);
}

TEST_F(AgentFixture, EstimateCompletionImplementsEq10) {
  const auto system = make(base_config());
  const Agent& s1 = system->agent_named("S1");
  ServiceInfo info = s1.service_snapshot();
  info.freetime = 0.0;
  // cpi's minimum over k of t_x(k) on the reference platform is 2 s.
  const auto eta = s1.estimate_completion(info, make_request("cpi", 1e6));
  ASSERT_TRUE(eta.has_value());
  EXPECT_DOUBLE_EQ(*eta, 2.0);
}

TEST_F(AgentFixture, EstimateAddsBacklog) {
  const auto system = make(base_config());
  const Agent& s1 = system->agent_named("S1");
  ServiceInfo info = s1.service_snapshot();
  info.freetime = 100.0;  // resource busy until t=100
  const auto eta = s1.estimate_completion(info, make_request("cpi", 1e6));
  ASSERT_TRUE(eta.has_value());
  EXPECT_DOUBLE_EQ(*eta, 102.0);
}

TEST_F(AgentFixture, EstimateScalesWithHardware) {
  const auto system = make(base_config());
  const Agent& s1 = system->agent_named("S1");
  ServiceInfo info = s1.service_snapshot();
  info.hardware_type = "SunSPARCstation2";
  const auto eta = s1.estimate_completion(info, make_request("cpi", 1e6));
  ASSERT_TRUE(eta.has_value());
  EXPECT_DOUBLE_EQ(
      *eta, 2.0 * pace::performance_factor(
                      pace::HardwareType::kSunSparcStation2));
}

TEST_F(AgentFixture, EstimateRejectsUnsupportedEnvironment) {
  const auto system = make(base_config());
  const Agent& s1 = system->agent_named("S1");
  ServiceInfo info = s1.service_snapshot();
  Request request = make_request("cpi", 1e6);
  request.environment = "cuda";
  EXPECT_FALSE(s1.estimate_completion(info, request).has_value());
}

TEST_F(AgentFixture, EstimateRejectsUnknownApplicationAndHardware) {
  const auto system = make(base_config());
  const Agent& s1 = system->agent_named("S1");
  ServiceInfo info = s1.service_snapshot();
  EXPECT_FALSE(
      s1.estimate_completion(info, make_request("linpack", 1e6)).has_value());
  info.hardware_type = "Cray";
  EXPECT_FALSE(
      s1.estimate_completion(info, make_request("cpi", 1e6)).has_value());
}

TEST_F(AgentFixture, ExpectedOccupancyUsesEfficientAllocation) {
  const auto system = make(base_config());
  const Agent& s1 = system->agent_named("S1");
  const ServiceInfo info = s1.service_snapshot();
  // cpi: best allocation 12 nodes × 2 s -> 24 node·s over 16 nodes = 1.5 s.
  const auto occupancy =
      s1.expected_occupancy(info, make_request("cpi", 1e6));
  ASSERT_TRUE(occupancy.has_value());
  EXPECT_DOUBLE_EQ(*occupancy, 2.0 * 12.0 / 16.0);
}

TEST_F(AgentFixture, LocalDispatchWhenDeadlineMet) {
  auto system = make(base_config());
  system->agent_named("S3").receive_request(make_request("sweep3d", 1e5));
  drain();
  EXPECT_EQ(system->agent_named("S3").stats().dispatched_local, 1u);
  EXPECT_EQ(system->agent_named("S3").stats().forwarded_up, 0u);
  EXPECT_EQ(collector.completed_tasks(), 1u);
}

TEST_F(AgentFixture, ForwardsToParentWhenLocalCannotMeetDeadline) {
  auto system = make(base_config());
  // Let advertisements propagate first.
  engine.run_until(1.0);
  // sweep3d minimum on SPARC2 is 20 s; a 10 s deadline cannot be met at S3
  // but S1 (SGI, 4 s minimum) qualifies via S3's capability table.
  system->agent_named("S3").receive_request(
      make_request("sweep3d", engine.now() + 10.0));
  drain();
  EXPECT_EQ(system->agent_named("S3").stats().dispatched_local, 0u);
  EXPECT_EQ(system->agent_named("S3").stats().forwarded_match, 1u);
  EXPECT_EQ(system->agent_named("S1").stats().dispatched_local, 1u);
  EXPECT_EQ(collector.completed_tasks(), 1u);
}

TEST_F(AgentFixture, EscalatesWhenActIsEmpty) {
  SystemConfig config = base_config();
  config.pull_period = 0.0;  // no advertisements: S3 knows nothing of S1
  auto system = make(std::move(config));
  system->agent_named("S3").receive_request(
      make_request("sweep3d", engine.now() + 10.0));
  drain();
  // With an empty ACT the request is "submitted to the upper agent".
  EXPECT_EQ(system->agent_named("S3").stats().forwarded_up, 1u);
  EXPECT_EQ(system->agent_named("S1").stats().dispatched_local, 1u);
}

TEST_F(AgentFixture, HeadForwardsDownToMatchingChild) {
  auto system = make(base_config());
  engine.run_until(1.0);
  // Occupy S1 far into the future so its own service fails the deadline.
  for (int i = 0; i < 40; ++i) {
    sched::Task task;
    task.id = TaskId(1000 + static_cast<std::uint64_t>(i));
    task.app = catalogue.find("improc");
    task.arrival = engine.now();
    task.deadline = engine.now() + 1e6;
    system->agent_named("S1").scheduler().submit(std::move(task));
  }
  // Let the GA plan the backlog so S1's advertised freetime reflects it.
  engine.run_until(2.0);
  ASSERT_GT(system->agent_named("S1").scheduler().freetime(),
            engine.now() + 60.0);
  system->agent_named("S1").receive_request(
      make_request("sweep3d", engine.now() + 60.0));
  drain();
  // S2 (Ultra5: sweep3d minimum 8.8 s) should have won the matchmaking.
  EXPECT_EQ(system->agent_named("S1").stats().forwarded_match, 1u);
  EXPECT_EQ(system->agent_named("S2").stats().dispatched_local, 1u);
}

TEST_F(AgentFixture, DiscoveryDisabledAlwaysRunsLocally) {
  SystemConfig config = base_config();
  config.discovery_enabled = false;
  auto system = make(std::move(config));
  // Impossible deadline: without agents the task still runs locally.
  system->agent_named("S3").receive_request(make_request("sweep3d", 1.0));
  drain();
  EXPECT_EQ(system->agent_named("S3").stats().dispatched_local, 1u);
  EXPECT_EQ(system->agent_named("S1").stats().requests_received, 0u);
  EXPECT_EQ(collector.completed_tasks(), 1u);
}

TEST_F(AgentFixture, StrictModeDropsImpossibleRequests) {
  SystemConfig config = base_config();
  config.strict_failure = true;
  auto system = make(std::move(config));
  engine.run_until(1.0);
  // No resource can run sweep3d inside 1 s.
  system->agent_named("S3").receive_request(
      make_request("sweep3d", engine.now() + 1.0));
  drain();
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < system->size(); ++i) {
    dropped += system->agent(i).stats().dropped;
  }
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(collector.completed_tasks(), 0u);
}

TEST_F(AgentFixture, BestEffortFallbackExecutesImpossibleRequests) {
  auto system = make(base_config());
  engine.run_until(1.0);
  system->agent_named("S3").receive_request(
      make_request("sweep3d", engine.now() + 1.0));
  drain();
  std::uint64_t fallbacks = 0;
  for (std::size_t i = 0; i < system->size(); ++i) {
    fallbacks += system->agent(i).stats().fallback_dispatches;
  }
  EXPECT_EQ(fallbacks, 1u);
  EXPECT_EQ(collector.completed_tasks(), 1u);
}

TEST_F(AgentFixture, PullAdvertisementFillsAct) {
  auto system = make(base_config());
  engine.run_until(1.0);
  // S1 pulls from its two children; S2/S3 pull from their parent.
  EXPECT_EQ(system->agent_named("S1").act().size(), 2u);
  EXPECT_EQ(system->agent_named("S2").act().size(), 1u);
  EXPECT_NE(system->agent_named("S2").act().find(AgentId(1)), nullptr);
  EXPECT_GE(system->agent_named("S1").stats().pulls_sent, 2u);
  EXPECT_GE(system->agent_named("S1").stats().advertisements_received, 2u);
}

TEST_F(AgentFixture, AdvertisementsRefreshPeriodically) {
  SystemConfig config = base_config();
  config.pull_period = 10.0;
  auto system = make(std::move(config));
  engine.run_until(35.0);
  // Pulls at t = 0, 10, 20, 30 -> 2 neighbours × 4 rounds.
  EXPECT_EQ(system->agent_named("S1").stats().pulls_sent, 8u);
  for (const auto& entry : system->agent_named("S1").act().entries()) {
    EXPECT_LE(engine.now() - entry.updated_at, 10.0);
  }
}

TEST_F(AgentFixture, PullDisabledLeavesActEmpty) {
  SystemConfig config = base_config();
  config.pull_period = 0.0;
  auto system = make(std::move(config));
  engine.run_until(30.0);
  EXPECT_EQ(system->agent_named("S1").act().size(), 0u);
}

TEST_F(AgentFixture, PushOnDispatchAdvertisesEagerly) {
  SystemConfig config = base_config();
  config.pull_period = 0.0;  // isolate the push path
  config.push_on_dispatch = true;
  auto system = make(std::move(config));
  system->agent_named("S1").receive_request(make_request("cpi", 1e6));
  drain();
  // S1 dispatched locally and pushed its service info to both children.
  EXPECT_EQ(system->agent_named("S2").act().size(), 1u);
  EXPECT_EQ(system->agent_named("S3").act().size(), 1u);
}

TEST_F(AgentFixture, HopAccountingTracksForwards) {
  auto system = make(base_config());
  engine.run_until(1.0);
  system->agent_named("S3").receive_request(
      make_request("sweep3d", engine.now() + 10.0));
  drain();
  // One forward S3 -> S1: the executing agent records one hop.
  EXPECT_EQ(system->agent_named("S1").stats().hops_accumulated, 1u);
}

TEST_F(AgentFixture, RequestsTravelAsXmlOverTheNetwork) {
  auto system = make(base_config());
  const auto before = system->network().total_messages();
  engine.run_until(1.0);
  system->agent_named("S3").receive_request(
      make_request("sweep3d", engine.now() + 10.0));
  drain();
  EXPECT_GT(system->network().total_messages(), before);
  EXPECT_GT(system->network().total_bytes(), 0u);
}

TEST_F(AgentFixture, AgentWiring) {
  auto system = make(base_config());
  Agent& s1 = system->agent_named("S1");
  Agent& s2 = system->agent_named("S2");
  EXPECT_EQ(s1.parent(), nullptr);
  EXPECT_EQ(s2.parent(), &s1);
  ASSERT_EQ(s1.children().size(), 2u);
  EXPECT_EQ(s1.children()[0], &s2);
}

TEST_F(AgentFixture, IgnoredAdvertisementsAreStillChecked) {
  // An advertisement from a non-neighbour, and an echo of the agent's own
  // service, are dropped unused, but each is read through the service
  // reader first: a child the writer cannot write throws.
  SystemConfig config = base_config();
  config.pull_period = 0.0;  // no traffic but the test's
  auto system = make(std::move(config));
  Agent& s2 = system->agent_named("S2");
  sim::Network& network = system->network();
  const sim::EndpointId stranger = network.register_endpoint([](auto&) {});
  const std::string service = to_xml(s2.service_snapshot());
  std::string extra = service;
  extra.insert(extra.rfind("</agentgrid>"), "<extra/>");
  std::string echo = extra;
  xml::stamp_root(echo, "agentid", NumberText(s2.id().value()).view());
  const sim::EndpointId parent = system->agent_named("S1").endpoint();

  network.send(stranger, s2.endpoint(), extra);
  EXPECT_THROW(drain(), xml::ParseError);
  network.send(parent, s2.endpoint(), echo);
  EXPECT_THROW(drain(), xml::ParseError);
  // The same documents without the extra child are read and ignored.
  network.send(stranger, s2.endpoint(), service);
  echo = service;
  xml::stamp_root(echo, "agentid", NumberText(s2.id().value()).view());
  network.send(parent, s2.endpoint(), echo);
  drain();
  EXPECT_EQ(s2.act().size(), 0u);
}

}  // namespace
}  // namespace gridlb::agents
