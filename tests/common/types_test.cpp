#include "common/types.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/assert.hpp"

namespace gridlb {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  TaskId id;
  EXPECT_FALSE(id.valid());
}

TEST(StrongId, ConstructedIsValid) {
  TaskId id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
}

TEST(StrongId, Comparisons) {
  EXPECT_EQ(TaskId(1), TaskId(1));
  EXPECT_NE(TaskId(1), TaskId(2));
  EXPECT_LT(TaskId(1), TaskId(2));
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<TaskId, AgentId>);
}

TEST(StrongId, Hashable) {
  std::unordered_set<TaskId> set;
  set.insert(TaskId(1));
  set.insert(TaskId(2));
  set.insert(TaskId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, StrFormatsValue) { EXPECT_EQ(AgentId(12).str(), "12"); }

TEST(Assert, RequireThrowsWithMessage) {
  try {
    GRIDLB_REQUIRE(1 == 2, "one is not two");
    FAIL() << "expected AssertionError";
  } catch (const AssertionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Assert, AssertPassesOnTrue) {
  EXPECT_NO_THROW(GRIDLB_ASSERT(2 + 2 == 4));
}

TEST(Time, Constants) {
  EXPECT_LT(kNoTime, 0.0);
  EXPECT_GT(kTimeInfinity, 1e300);
}

}  // namespace
}  // namespace gridlb
