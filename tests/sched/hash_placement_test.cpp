// HashPlacement (DESIGN.md §15): determinism, weight-proportional
// selection, and the straw2 bounded-remap contract.
#include "sched/hash_placement.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "pace/hardware.hpp"

namespace gridlb::sched {
namespace {

std::vector<PlacementTarget> synthetic_tree() {
  // A small heterogeneous resource tree: weights 1, 2, 4 and 1 again.
  return {{AgentId(1), 1.0}, {AgentId(2), 2.0}, {AgentId(3), 4.0},
          {AgentId(4), 1.0}};
}

// Every map hashes with the one seed constant: two maps built from the
// same targets agree on every key.
TEST(HashPlacement, SameSeedSamePlacement) {
  const HashPlacement a(synthetic_tree());
  const HashPlacement b(synthetic_tree());
  for (std::uint64_t key = 0; key < 500; ++key) {
    const PlacementDecision da = a.place(key);
    const PlacementDecision db = b.place(key);
    EXPECT_EQ(da.index, db.index);
    EXPECT_EQ(da.resource, db.resource);
    EXPECT_EQ(da.draw, db.draw);
  }
}

TEST(HashPlacement, SelectionIsWeightProportional) {
  const std::vector<PlacementTarget> tree = synthetic_tree();
  const HashPlacement placement(tree);
  const std::uint64_t keys = 40000;
  std::vector<std::uint64_t> hits(tree.size(), 0);
  for (std::uint64_t key = 0; key < keys; ++key) {
    ++hits[placement.place(key).index];
  }
  const double total = placement.total_weight();
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const double expected = tree[i].weight / total;
    const double observed =
        static_cast<double>(hits[i]) / static_cast<double>(keys);
    // Binomial σ ≈ sqrt(p(1−p)/n) < 0.0025 here; ±0.01 is 4σ+.
    EXPECT_NEAR(observed, expected, 0.01) << "target " << i;
  }
}

TEST(HashPlacement, HardwareWeightScalesWithNodesOverFactor) {
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const auto sparc =
      pace::ResourceModel::of(pace::HardwareType::kSunSparcStation2);
  EXPECT_DOUBLE_EQ(HashPlacement::hardware_weight(sgi, 16), 16.0 / sgi.factor);
  // A slower platform at equal node count must weigh strictly less.
  EXPECT_LT(HashPlacement::hardware_weight(sparc, 16),
            HashPlacement::hardware_weight(sgi, 16));
  EXPECT_DOUBLE_EQ(HashPlacement::hardware_weight(sparc, 32),
                   2.0 * HashPlacement::hardware_weight(sparc, 16));
}

TEST(HashPlacement, RemovalRemapsOnlyTheRemovedTargetsKeys) {
  const std::vector<PlacementTarget> tree = synthetic_tree();
  const std::uint64_t keys = 20000;
  const std::size_t removed = 2;  // the weight-4 target
  HashPlacement placement(tree);
  std::vector<std::size_t> before(keys);
  for (std::uint64_t key = 0; key < keys; ++key) {
    before[key] = placement.place(key).index;
  }
  placement.set_available(removed, false);
  std::uint64_t remapped = 0;
  for (std::uint64_t key = 0; key < keys; ++key) {
    const std::size_t after = placement.place(key).index;
    EXPECT_NE(after, removed);
    if (before[key] == removed) {
      ++remapped;
    } else {
      // The straw2 contract, exactly: no key moves between survivors.
      EXPECT_EQ(after, before[key]) << "key " << key;
    }
  }
  // The remapped fraction is the removed target's weight share (binomial
  // noise only: σ ≈ 0.0035 at n=20000, tolerance is ±4σ+).
  const double share = tree[removed].weight / 8.0;
  EXPECT_NEAR(static_cast<double>(remapped) / static_cast<double>(keys), share,
              0.015);
  // Restoring the target restores the original mapping bit-for-bit.
  placement.set_available(removed, true);
  for (std::uint64_t key = 0; key < keys; ++key) {
    EXPECT_EQ(placement.place(key).index, before[key]);
  }
}

TEST(HashPlacement, ReweightingMovesKeysOnlyToOrFromThatTarget) {
  const std::vector<PlacementTarget> tree = synthetic_tree();
  const std::uint64_t keys = 5000;
  const HashPlacement placement(tree);
  std::vector<PlacementTarget> reweighted = tree;
  reweighted[1].weight = 6.0;  // was 2.0
  const HashPlacement heavier(reweighted);
  for (std::uint64_t key = 0; key < keys; ++key) {
    const std::size_t before = placement.place(key).index;
    const std::size_t after = heavier.place(key).index;
    // Growing one target only pulls keys in; every move involves it.
    if (after != before) {
      EXPECT_EQ(after, 1u) << "key " << key;
    }
  }
}

TEST(HashPlacement, LoadDiscountDrainsABackloggedTarget) {
  HashPlacement placement(synthetic_tree());
  // Pile an absurd backlog onto the heavy target; its discounted weight
  // collapses and every key must land elsewhere.
  placement.record_dispatch(2, 0.0, 1.0e12);
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_NE(placement.place(key, 0.0).index, 2u);
  }
  // Far in the future the backlog has drained and the map is pristine.
  const HashPlacement fresh(synthetic_tree());
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(placement.place(key, 2.0e12).index, fresh.place(key).index);
  }
}

TEST(HashPlacement, ValidatesInputs) {
  EXPECT_THROW(HashPlacement({}), AssertionError);
  EXPECT_THROW(HashPlacement({{AgentId(1), 0.0}}), AssertionError);
  EXPECT_THROW(HashPlacement({{AgentId(), 1.0}}), AssertionError);
  HashPlacement placement(synthetic_tree());
  for (std::size_t i = 0; i < 4; ++i) placement.set_available(i, false);
  EXPECT_THROW((void)placement.place(0), AssertionError);
}

}  // namespace
}  // namespace gridlb::sched
