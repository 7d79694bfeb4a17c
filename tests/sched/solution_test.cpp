#include "sched/solution.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <utility>

#include "common/assert.hpp"

namespace gridlb::sched {
namespace {

TEST(NodeMask, FullMask) {
  EXPECT_EQ(full_mask(1), 0b1u);
  EXPECT_EQ(full_mask(4), 0b1111u);
  EXPECT_EQ(full_mask(16), 0xFFFFu);
  EXPECT_EQ(full_mask(32), 0xFFFFFFFFu);
}

TEST(NodeMask, NodeCount) {
  EXPECT_EQ(node_count(0), 0);
  EXPECT_EQ(node_count(0b1011), 3);
  EXPECT_EQ(node_count(full_mask(16)), 16);
}

TEST(NodeMask, ForEachNodeAscending) {
  std::vector<int> nodes;
  for_each_node(0b101001, [&nodes](int n) { nodes.push_back(n); });
  EXPECT_EQ(nodes, (std::vector<int>{0, 3, 5}));
}

TEST(NodeMask, ValidMask) {
  EXPECT_TRUE(valid_mask(0b1, 4));
  EXPECT_TRUE(valid_mask(0b1111, 4));
  EXPECT_FALSE(valid_mask(0, 4));        // empty
  EXPECT_FALSE(valid_mask(0b10000, 4));  // beyond resource
}

TEST(SolutionString, RandomIsValid) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = SolutionString::random(10, 16, rng);
    EXPECT_TRUE(s.valid());
    EXPECT_EQ(s.task_count(), 10);
    EXPECT_EQ(s.node_count(), 16);
  }
}

TEST(SolutionString, RandomHandlesEmptyTaskSet) {
  Rng rng(1);
  const auto s = SolutionString::random(0, 16, rng);
  EXPECT_TRUE(s.valid());
  EXPECT_EQ(s.task_count(), 0);
}

TEST(SolutionString, ConstructorValidates) {
  EXPECT_THROW(SolutionString({0, 0}, {1, 1}, 4), AssertionError);  // dup
  EXPECT_THROW(SolutionString({0, 2}, {1, 1}, 4), AssertionError);  // hole
  EXPECT_THROW(SolutionString({0, 1}, {1, 0}, 4), AssertionError);  // empty
  EXPECT_THROW(SolutionString({0, 1}, {1}, 4), AssertionError);  // size
  EXPECT_THROW(SolutionString({0}, {0b10000}, 4), AssertionError);  // range
  EXPECT_NO_THROW(SolutionString({1, 0}, {0b11, 0b100}, 4));
}

TEST(SolutionString, Accessors) {
  const SolutionString s({2, 0, 1}, {0b001, 0b010, 0b100}, 4);
  EXPECT_EQ(s.task_at(0), 2);
  EXPECT_EQ(s.task_at(2), 1);
  EXPECT_EQ(s.mask_of(0), 0b001u);
  EXPECT_EQ(s.mask_of(2), 0b100u);
}

TEST(Crossover, ChildrenAreAlwaysValid) {
  Rng rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    const auto a = SolutionString::random(12, 8, rng);
    const auto b = SolutionString::random(12, 8, rng);
    SolutionString child;
    a.crossover(b, rng, child);
    ASSERT_TRUE(child.valid()) << "trial " << trial;
  }
}

TEST(Crossover, OrderPrefixComesFromFirstParent) {
  // With the cut at any point, the child's ordering must start with a
  // prefix of parent A's ordering.
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = SolutionString::random(8, 4, rng);
    const auto b = SolutionString::random(8, 4, rng);
    SolutionString child;
    a.crossover(b, rng, child);
    // Find the longest common prefix with A, then verify the remainder
    // follows B's relative order.
    std::size_t prefix = 0;
    while (prefix < child.order().size() &&
           child.order()[prefix] == a.order()[prefix]) {
      ++prefix;
    }
    std::vector<int> rest(child.order().begin() +
                              static_cast<std::ptrdiff_t>(prefix),
                          child.order().end());
    std::vector<int> b_filtered;
    for (const int t : b.order()) {
      if (std::find(rest.begin(), rest.end(), t) != rest.end()) {
        b_filtered.push_back(t);
      }
    }
    EXPECT_EQ(rest, b_filtered) << "trial " << trial;
  }
}

TEST(Crossover, EachMaskBitComesFromAParent) {
  // Away from the single crossover bit, every task's mask equals one
  // parent's mask (possibly with an empty-repair bit added; repairs only
  // trigger on empty masks, which we avoid by using dense parents).
  Rng rng(4);
  const SolutionString a({0, 1, 2}, {0b1111, 0b1111, 0b1111}, 4);
  const SolutionString b({2, 1, 0}, {0b0001, 0b0010, 0b0100}, 4);
  for (int trial = 0; trial < 100; ++trial) {
    SolutionString child;
    a.crossover(b, rng, child);
    for (int t = 0; t < 3; ++t) {
      const NodeMask mask = child.mask_of(t);
      const NodeMask low_a_high_b =
          (a.mask_of(t) & full_mask(4)) | (b.mask_of(t) & full_mask(4));
      // Every child bit must exist in the union of the parents' bits.
      EXPECT_EQ(mask & ~low_a_high_b, 0u);
    }
  }
}

TEST(Crossover, EmptyTaskSet) {
  Rng rng(5);
  const auto a = SolutionString::random(0, 4, rng);
  const auto b = SolutionString::random(0, 4, rng);
  SolutionString child = SolutionString::random(3, 4, rng);
  a.crossover(b, rng, child);
  EXPECT_EQ(child.task_count(), 0);
}

TEST(Crossover, MismatchedParentsRejected) {
  Rng rng(6);
  const auto a = SolutionString::random(3, 4, rng);
  const auto b = SolutionString::random(4, 4, rng);
  SolutionString child;
  EXPECT_THROW(a.crossover(b, rng, child), AssertionError);
}

TEST(Crossover, ReusedChildMatchesFreshChild) {
  // A recycled child's stale contents — another task count, another node
  // count — must not leak into the result or shift the draw sequence.
  Rng setup(8);
  const auto a = SolutionString::random(12, 8, setup);
  const auto b = SolutionString::random(12, 8, setup);
  for (const auto& [tasks, nodes] :
       {std::pair{3, 4}, std::pair{40, 16}, std::pair{12, 8}}) {
    SolutionString reused = SolutionString::random(tasks, nodes, setup);
    Rng fresh_rng(tasks * 31 + nodes);
    Rng reused_rng = fresh_rng;
    for (int trial = 0; trial < 50; ++trial) {
      SolutionString fresh;
      a.crossover(b, fresh_rng, fresh);
      a.crossover(b, reused_rng, reused);
      ASSERT_EQ(reused, fresh) << tasks << "x" << nodes << " trial " << trial;
      ASSERT_TRUE(reused.valid());
    }
    EXPECT_EQ(fresh_rng.next_u64(), reused_rng.next_u64());
  }
}

TEST(Crossover, ChildMustNotAliasAParent) {
  Rng rng(9);
  auto a = SolutionString::random(5, 4, rng);
  auto b = SolutionString::random(5, 4, rng);
  EXPECT_THROW(a.crossover(b, rng, a), AssertionError);
  EXPECT_THROW(a.crossover(b, rng, b), AssertionError);
}

TEST(Mutate, PreservesValidity) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    auto s = SolutionString::random(10, 8, rng);
    s.mutate(0.5, 0.2, rng);
    ASSERT_TRUE(s.valid());
  }
}

TEST(Mutate, ZeroRatesLeaveOrderingIntact) {
  Rng rng(8);
  auto s = SolutionString::random(10, 8, rng);
  const auto before = s;
  s.mutate(0.0, 0.0, rng);
  EXPECT_EQ(s, before);
}

TEST(Mutate, SwapRateOneAlwaysTransposes) {
  Rng rng(9);
  auto s = SolutionString::random(10, 8, rng);
  const auto before_order = s.order();
  s.mutate(1.0, 0.0, rng);
  int moved = 0;
  for (std::size_t i = 0; i < before_order.size(); ++i) {
    if (before_order[i] != s.order()[i]) ++moved;
  }
  EXPECT_EQ(moved, 2);  // exactly one transposition
}

TEST(Mutate, SingleTaskCannotSwap) {
  Rng rng(10);
  auto s = SolutionString::random(1, 8, rng);
  EXPECT_NO_THROW(s.mutate(1.0, 0.5, rng));
  EXPECT_TRUE(s.valid());
}

TEST(RemapTasks, DropsStartedTasksKeepsOrder) {
  Rng rng(11);
  // Tasks 0..4; task 1 and 3 started (removed); 0->0, 2->1, 4->2.
  SolutionString s({4, 1, 0, 3, 2}, {0b1, 0b10, 0b100, 0b1000, 0b1}, 4);
  s.remap_tasks({0, -1, 1, -1, 2}, 3, rng);
  EXPECT_TRUE(s.valid());
  EXPECT_EQ(s.task_count(), 3);
  EXPECT_EQ(s.order(), (std::vector<int>{2, 0, 1}));  // was 4,0,2
  EXPECT_EQ(s.mask_of(0), 0b1u);    // old task 0
  EXPECT_EQ(s.mask_of(1), 0b100u);  // old task 2
  EXPECT_EQ(s.mask_of(2), 0b1u);    // old task 4
}

TEST(RemapTasks, InsertsNewTasks) {
  Rng rng(12);
  SolutionString s({1, 0}, {0b1, 0b10}, 4);
  s.remap_tasks({0, 1}, 4, rng);  // two fresh tasks appended
  EXPECT_TRUE(s.valid());
  EXPECT_EQ(s.task_count(), 4);
  // The surviving tasks keep their relative order (1 before 0).
  const auto& order = s.order();
  const auto pos = [&order](int task) {
    return std::find(order.begin(), order.end(), task) - order.begin();
  };
  EXPECT_LT(pos(1), pos(0));
  EXPECT_EQ(s.mask_of(0), 0b1u);
  EXPECT_EQ(s.mask_of(1), 0b10u);
}

TEST(RemapTasks, FullTurnover) {
  Rng rng(13);
  SolutionString s({0, 1}, {0b1, 0b10}, 4);
  s.remap_tasks({-1, -1}, 3, rng);
  EXPECT_TRUE(s.valid());
  EXPECT_EQ(s.task_count(), 3);
}

TEST(RemapTasks, RejectsWrongSizeTable) {
  Rng rng(14);
  SolutionString s({0, 1}, {0b1, 0b10}, 4);
  EXPECT_THROW(s.remap_tasks({0}, 2, rng), AssertionError);
}

// Property sweep: operators preserve validity across sizes.
class OperatorValidity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OperatorValidity, CrossoverAndMutateStayLegal) {
  const auto [tasks, nodes] = GetParam();
  Rng rng(static_cast<std::uint64_t>(tasks * 100 + nodes));
  auto a = SolutionString::random(tasks, nodes, rng);
  auto b = SolutionString::random(tasks, nodes, rng);
  for (int round = 0; round < 50; ++round) {
    SolutionString child;
    a.crossover(b, rng, child);
    child.mutate(0.3, 0.1, rng);
    ASSERT_TRUE(child.valid());
    b = a;
    a = std::move(child);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OperatorValidity,
    ::testing::Combine(::testing::Values(1, 2, 5, 20, 50),
                       ::testing::Values(1, 4, 16, 32)));

}  // namespace
}  // namespace gridlb::sched
