// Transitive advertisement scope: relayed capability-table entries and
// routed discovery across a three-level hierarchy.
#include <gtest/gtest.h>

#include "agents/agent_system.hpp"
#include "agents/portal.hpp"
#include "common/assert.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::agents {
namespace {

// A chain: S1 (SPARC2, head) -> S2 (SPARC2) -> S3 (SGI).  S3 is the only
// fast resource and is *not* a neighbour of S1.
struct TransitiveFixture : ::testing::Test {
  sim::Engine engine;
  metrics::MetricsCollector collector;
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();

  SystemConfig chain(AdvertisementScope scope) {
    SystemConfig config;
    config.resources = {
        {"S1", pace::HardwareType::kSunSparcStation2, 16, -1},
        {"S2", pace::HardwareType::kSunSparcStation2, 16, 0},
        {"S3", pace::HardwareType::kSgiOrigin2000, 16, 1},
    };
    config.scope = scope;
    return config;
  }

  std::unique_ptr<AgentSystem> make(AdvertisementScope scope) {
    auto system = std::make_unique<AgentSystem>(engine, catalogue,
                                                chain(scope), &collector);
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
  // Runs a bounded horizon (pulls never drain the queue).
  void drain() { engine.run_until(engine.now() + 7200.0); }
};

TEST_F(TransitiveFixture, OwnServiceScopeSeesOnlyNeighbours) {
  auto system = make(AdvertisementScope::kOwnService);
  // Two pull rounds so any relaying would have happened.
  engine.run_until(21.0);
  EXPECT_EQ(system->agent_named("S1").act().size(), 1u);  // S2 only
  EXPECT_EQ(system->agent_named("S2").act().size(), 2u);  // S1, S3
}

TEST_F(TransitiveFixture, TransitiveScopePropagatesAlongTheChain) {
  auto system = make(AdvertisementScope::kTransitive);
  engine.run_until(21.0);
  // S1 learns S3 through S2 (and vice versa).
  const CapabilityTable& act = system->agent_named("S1").act();
  EXPECT_EQ(act.size(), 2u);
  const auto* s3_entry = act.find(AgentId(3));
  ASSERT_NE(s3_entry, nullptr);
  EXPECT_EQ(s3_entry->via, AgentId(2));
  EXPECT_EQ(s3_entry->info.hardware_type, "SGIOrigin2000");
  const auto* s1_at_s3 = system->agent_named("S3").act().find(AgentId(1));
  ASSERT_NE(s1_at_s3, nullptr);
  EXPECT_EQ(s1_at_s3->via, AgentId(2));
}

TEST_F(TransitiveFixture, SplitHorizonSuppressesEcho) {
  auto system = make(AdvertisementScope::kTransitive);
  engine.run_until(61.0);
  // S2 must never hold an entry describing S2, and S1 never one for S1.
  EXPECT_EQ(system->agent_named("S2").act().find(AgentId(2)), nullptr);
  EXPECT_EQ(system->agent_named("S1").act().find(AgentId(1)), nullptr);
}

TEST_F(TransitiveFixture, DiscoveryRoutesToGrandchild) {
  auto system = make(AdvertisementScope::kTransitive);
  engine.run_until(21.0);
  // sweep3d within 12 s: impossible on SPARC2 (min 20 s), fine on the SGI
  // grandchild (min 4 s).  With transitive entries S1 routes via S2.
  system->agent_named("S1").receive_request(
      make_request("sweep3d", engine.now() + 12.0));
  drain();
  EXPECT_EQ(system->agent_named("S3").stats().dispatched_local, 1u);
  EXPECT_EQ(collector.completed_tasks(), 1u);
  EXPECT_EQ(system->agent_named("S1").stats().forwarded_match, 1u);
  // No fallback was needed anywhere.
  for (std::size_t i = 0; i < system->size(); ++i) {
    EXPECT_EQ(system->agent(i).stats().fallback_dispatches, 0u);
  }
}

TEST_F(TransitiveFixture, OwnServiceScopeCannotReachTheGrandchild) {
  // The limitation transitive relaying removes: the head only knows its
  // direct neighbour S2 (also too slow), so the same request dead-ends
  // into best-effort fallback on a SPARCstation and misses its deadline.
  auto system = make(AdvertisementScope::kOwnService);
  engine.run_until(21.0);
  system->agent_named("S1").receive_request(
      make_request("sweep3d", engine.now() + 12.0));
  drain();
  EXPECT_EQ(system->agent_named("S3").stats().dispatched_local, 0u);
  std::uint64_t fallbacks = 0;
  for (std::size_t i = 0; i < system->size(); ++i) {
    fallbacks += system->agent(i).stats().fallback_dispatches;
  }
  EXPECT_EQ(fallbacks, 1u);
  ASSERT_EQ(collector.completed_tasks(), 1u);
  const auto& record = collector.records()[0];
  EXPECT_GT(record.end, record.deadline);  // executed, but late
}

TEST_F(TransitiveFixture, HopBudgetForcesTermination) {
  SystemConfig config = chain(AdvertisementScope::kTransitive);
  // A hop budget of zero forces every non-local-dispatch into fallback.
  config.resources[0].name = "S1";
  auto system = std::make_unique<AgentSystem>(engine, catalogue,
                                              std::move(config), &collector);
  system->start();
  engine.run_until(21.0);
  Request request = make_request("sweep3d", engine.now() + 12.0);
  // Simulate a request that has already bounced a lot.
  for (std::uint64_t i = 100; i < 140; ++i) {
    request.visited.push_back(AgentId(i));
  }
  system->agent_named("S1").receive_request(std::move(request));
  drain();
  EXPECT_EQ(system->agent_named("S1").stats().fallback_dispatches, 1u);
  EXPECT_EQ(collector.completed_tasks(), 1u);
}

TEST_F(TransitiveFixture, CampaignCompletesUnderTransitiveScope) {
  auto system = make(AdvertisementScope::kTransitive);
  Portal portal(engine, system->network(), catalogue, &collector);
  Rng rng(13);
  for (int i = 0; i < 40; ++i) {
    engine.schedule_at(static_cast<double>(i) + 1.0, [&, i]() {
      const auto& app = catalogue.all()[static_cast<std::size_t>(i) % 7];
      const auto domain = app->deadline_domain();
      portal.submit(system->agent(static_cast<std::size_t>(i) % 3),
                    app->name(),
                    engine.now() + rng.uniform(domain.lo, domain.hi));
    });
  }
  drain();
  EXPECT_EQ(collector.completed_tasks(), 40u);
  EXPECT_EQ(portal.results_received(), 40u);
}

}  // namespace
}  // namespace gridlb::agents
