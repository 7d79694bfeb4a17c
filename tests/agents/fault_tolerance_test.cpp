// End-to-end fault tolerance (DESIGN.md §10): a lossy network still
// delivers every task, an unreachable entry agent falls back to the head,
// a crash strands its pending queue for portal re-discovery, and ACT
// expiry shuns a neighbour that stopped advertising.
#include <gtest/gtest.h>

#include <vector>

#include "agents/agent_system.hpp"
#include "agents/portal.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::agents {
namespace {

struct FaultToleranceFixture : ::testing::Test {
  sim::Engine engine;
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  metrics::MetricsCollector collector;

  SystemConfig tolerant_config() {
    SystemConfig config;
    config.resources = {
        {"A", pace::HardwareType::kSgiOrigin2000, 16, -1},
        {"B", pace::HardwareType::kSunUltra10, 8, 0},
        {"C", pace::HardwareType::kSunUltra1, 4, 0},
    };
    // Agent churn makes the grid loss-tolerant; a zero horizon schedules
    // no crash, so the tests below do all the crashing themselves.
    config.agent_churn.enabled = true;
    config.agent_churn.horizon = 0.0;
    return config;
  }
};

TEST_F(FaultToleranceFixture, LossyNetworkStillDeliversEveryTaskAndResult) {
  SystemConfig config = tolerant_config();
  config.fault.drop_prob = 0.1;
  config.fault.seed = 3;
  AgentSystem system(engine, catalogue, config, &collector);
  system.start();
  Portal portal(engine, system.network(), catalogue, &collector,
                config.retry_policy());
  portal.set_fallback_entry(&system.head());
  system.set_stranded_sink([&portal](TaskId task) { portal.resubmit(task); });

  for (int i = 0; i < 20; ++i) {
    portal.submit(system.head(), i % 2 == 0 ? "fft" : "closure", 3500.0);
  }
  engine.run_until(3600.0);

  // Retransmission must mask every drop: no task lost, no result lost.
  EXPECT_EQ(collector.completed_tasks(), 20u);
  EXPECT_EQ(portal.results_received(), 20u);
  EXPECT_GT(system.network().fault_stats().dropped_total(), 0u);
  std::uint64_t retries = portal.link_stats().retries;
  for (std::size_t i = 0; i < system.size(); ++i) {
    retries += system.agent(i).link_stats().retries;
  }
  EXPECT_GT(retries, 0u);
}

TEST_F(FaultToleranceFixture, UnreachableEntryAgentFallsBackToTheHead) {
  const SystemConfig config = tolerant_config();
  AgentSystem system(engine, catalogue, config, &collector);
  system.start();
  Portal portal(engine, system.network(), catalogue, &collector,
                config.retry_policy());
  portal.set_fallback_entry(&system.head());

  Agent& entry = system.agent_named("B");
  for (TaskId task : entry.crash()) portal.resubmit(task);  // none yet
  for (int i = 0; i < 3; ++i) portal.submit(entry, "fft", 3500.0);
  engine.run_until(3600.0);

  // Every transmission died against the deaf endpoint; after the retry
  // budget the portal re-discovered each task through the head.
  EXPECT_EQ(portal.link_stats().expired, 3u);
  EXPECT_EQ(portal.tasks_resubmitted(), 3u);
  EXPECT_EQ(collector.completed_tasks(), 3u);
  EXPECT_EQ(portal.results_received(), 3u);
  EXPECT_EQ(entry.stats().requests_received, 0u);
}

TEST_F(FaultToleranceFixture, CrashStrandsPendingTasksWhichTheHeadRecovers) {
  SystemConfig config = tolerant_config();
  config.discovery_enabled = false;  // pin the tasks to their entry agent
  AgentSystem system(engine, catalogue, config, &collector);
  system.start();
  Portal portal(engine, system.network(), catalogue, &collector,
                config.retry_policy());
  portal.set_fallback_entry(&system.head());

  Agent& victim = system.agent_named("C");  // 4 nodes: most tasks must queue
  for (int i = 0; i < 12; ++i) portal.submit(victim, "fft", 3500.0);
  engine.schedule_at(5.0, [&victim, &portal]() {
    for (TaskId task : victim.crash()) portal.resubmit(task);
  });
  engine.schedule_at(300.0, [&victim]() { victim.restart(); });
  engine.run_until(3600.0);

  // Tasks already running ride out the crash on the resource; the stranded
  // remainder re-enters through the head.  Nothing executes twice.
  EXPECT_EQ(collector.completed_tasks(), 12u);
  EXPECT_GT(portal.tasks_resubmitted(), 0u);
  EXPECT_EQ(victim.stats().crashes, 1u);
  EXPECT_EQ(victim.stats().restarts, 1u);
  EXPECT_TRUE(victim.alive());
}

TEST_F(FaultToleranceFixture, ActExpiryShunsANeighbourThatStoppedAdvertising) {
  SystemConfig config = tolerant_config();
  // The head is the weakest resource: discovery prefers the child B
  // whenever its advertisements are trusted.
  config.resources = {
      {"A", pace::HardwareType::kSunUltra1, 4, -1},
      {"B", pace::HardwareType::kSgiOrigin2000, 16, 0},
  };
  AgentSystem system(engine, catalogue, config, &collector);
  system.start();
  Portal portal(engine, system.network(), catalogue, &collector,
                config.retry_policy());
  portal.set_fallback_entry(&system.head());

  // sweep3d needs 75 s on the 4-node Ultra1 head but only 4 s on B: a
  // 10 s deadline always sends discovery towards B's advertisements.
  Agent& child = system.agent_named("B");
  engine.schedule_at(50.0, [&portal, &system, this]() {
    portal.submit(system.head(), "sweep3d", engine.now() + 10.0);
  });
  engine.schedule_at(100.5, [&child]() { (void)child.crash(); });
  // act_expiry = 3 advertisement periods = 30 s; by t=140.5 the head's
  // entry for B is stale and discovery must not trust it.
  engine.schedule_at(140.5, [&portal, &system, this]() {
    portal.submit(system.head(), "sweep3d", engine.now() + 10.0);
  });
  engine.run_until(3600.0);

  // The pre-crash task proves B was the preferred target; the post-crash
  // task falls back to local best-effort without ever probing the dead
  // neighbour — no retry traffic, no reroute.
  EXPECT_EQ(child.stats().requests_received, 1u);
  EXPECT_EQ(collector.completed_tasks(), 2u);
  EXPECT_EQ(system.head().stats().reroutes, 0u);
  EXPECT_EQ(system.head().link_stats().retries, 0u);
  EXPECT_EQ(system.head().link_stats().expired, 0u);
}

}  // namespace
}  // namespace gridlb::agents
