#include "agents/act.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"

namespace gridlb::agents {
namespace {

ServiceInfo info_with_freetime(double freetime) {
  ServiceInfo info;
  info.hardware_type = "SunUltra5";
  info.nproc = 16;
  info.freetime = freetime;
  return info;
}

TEST(CapabilityTable, StartsEmpty) {
  CapabilityTable act;
  EXPECT_EQ(act.size(), 0u);
  EXPECT_EQ(act.find(AgentId(1)), nullptr);
}

TEST(CapabilityTable, UpsertInsertsAndRefreshes) {
  CapabilityTable act;
  act.upsert(AgentId(1), info_with_freetime(10.0), 5.0, AgentId(1));
  ASSERT_NE(act.find(AgentId(1)), nullptr);
  EXPECT_DOUBLE_EQ(act.find(AgentId(1))->info.freetime, 10.0);
  EXPECT_DOUBLE_EQ(act.find(AgentId(1))->updated_at, 5.0);

  act.upsert(AgentId(1), info_with_freetime(20.0), 15.0, AgentId(1));
  EXPECT_EQ(act.size(), 1u);
  EXPECT_DOUBLE_EQ(act.find(AgentId(1))->info.freetime, 20.0);
  EXPECT_DOUBLE_EQ(act.find(AgentId(1))->updated_at, 15.0);
}

TEST(CapabilityTable, TracksMultipleAgents) {
  CapabilityTable act;
  act.upsert(AgentId(1), info_with_freetime(1.0), 0.0, AgentId(1));
  act.upsert(AgentId(2), info_with_freetime(2.0), 0.0, AgentId(2));
  act.upsert(AgentId(3), info_with_freetime(3.0), 0.0, AgentId(3));
  EXPECT_EQ(act.size(), 3u);
  EXPECT_DOUBLE_EQ(act.find(AgentId(2))->info.freetime, 2.0);
  EXPECT_EQ(act.entries()[0].agent, AgentId(1));  // insertion order
}

TEST(CapabilityTable, RejectsInvalidAgentId) {
  CapabilityTable act;
  EXPECT_THROW(
      act.upsert(AgentId(), info_with_freetime(1.0), 0.0, AgentId(1)),
      AssertionError);
}

TEST(CapabilityTable, AdvanceFreetimeBumpsFromFuture) {
  CapabilityTable act;
  act.upsert(AgentId(1), info_with_freetime(100.0), 0.0, AgentId(1));
  act.advance_freetime(AgentId(1), 50.0, 7.0);
  EXPECT_DOUBLE_EQ(act.find(AgentId(1))->info.freetime, 107.0);
}

TEST(CapabilityTable, AdvanceFreetimeBumpsFromNowWhenIdle) {
  // If the cached freetime is already in the past the resource is idle;
  // the optimistic estimate starts from `now`.
  CapabilityTable act;
  act.upsert(AgentId(1), info_with_freetime(10.0), 0.0, AgentId(1));
  act.advance_freetime(AgentId(1), 50.0, 7.0);
  EXPECT_DOUBLE_EQ(act.find(AgentId(1))->info.freetime, 57.0);
}

TEST(CapabilityTable, AdvanceFreetimeUnknownAgentIsNoop) {
  CapabilityTable act;
  EXPECT_NO_THROW(act.advance_freetime(AgentId(9), 0.0, 5.0));
}

TEST(CapabilityTable, AdvanceFreetimeRejectsNegative) {
  CapabilityTable act;
  act.upsert(AgentId(1), info_with_freetime(10.0), 0.0, AgentId(1));
  EXPECT_THROW(act.advance_freetime(AgentId(1), 0.0, -1.0), AssertionError);
}

TEST(CapabilityTable, RealAdvertisementOverwritesOptimisticEstimate) {
  CapabilityTable act;
  act.upsert(AgentId(1), info_with_freetime(100.0), 0.0, AgentId(1));
  act.advance_freetime(AgentId(1), 0.0, 50.0);  // estimate: 150
  // The truth arrives.
  act.upsert(AgentId(1), info_with_freetime(110.0), 10.0, AgentId(1));
  EXPECT_DOUBLE_EQ(act.find(AgentId(1))->info.freetime, 110.0);
}

}  // namespace
}  // namespace gridlb::agents
