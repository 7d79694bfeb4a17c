#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace gridlb {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), AssertionError);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleMeanIsAboutHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(4.0, 200.0);
    EXPECT_GE(v, 4.0);
    EXPECT_LT(v, 200.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceFrequencyTracksProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), shuffled.begin()));
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(v, shuffled);
}

TEST(Rng, ShuffleHandlesEmptyAndSingleton) {
  Rng rng(29);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

// bernoulli_bits(n, p) is n calls to chance(p) folded into one word: same
// outcomes, bit i for draw i, and the same stream position afterwards.
void expect_bernoulli_bits_match_chance(double p) {
  for (const int n : {0, 1, 16, 32, 64}) {
    Rng bulk(std::bit_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(n));
    Rng single = bulk;
    for (int round = 0; round < 4; ++round) {
      const std::uint64_t bits = bulk.bernoulli_bits(n, p);
      std::uint64_t expected = 0;
      for (int i = 0; i < n; ++i) {
        if (single.chance(p)) expected |= std::uint64_t{1} << i;
      }
      ASSERT_EQ(bits, expected) << "p=" << p << " n=" << n;
    }
    ASSERT_EQ(bulk.next_u64(), single.next_u64()) << "p=" << p << " n=" << n;
  }
}

TEST(Rng, BernoulliBitsMatchesChanceAtEdges) {
  for (const double p : {0.0, 1.0, 0.02, 0.5, std::nextafter(1.0, 0.0),
                         1e-300}) {
    expect_bernoulli_bits_match_chance(p);
  }
}

TEST(Rng, BernoulliBitsMatchesChanceOnRandomProbabilities) {
  Rng source(2003);
  for (int i = 0; i < 1000; ++i) {
    // Half in (0, 1), half arbitrary bit patterns: negatives, p > 1,
    // subnormals, infinities and NaNs must agree too.
    const double p = i % 2 == 0
                         ? source.next_double()
                         : std::bit_cast<double>(source.next_u64());
    expect_bernoulli_bits_match_chance(p);
  }
}

TEST(Rng, BernoulliBitsRejectsMoreThan64Draws) {
  Rng rng(43);
  EXPECT_THROW((void)rng.bernoulli_bits(65, 0.5), AssertionError);
  EXPECT_THROW((void)rng.bernoulli_bits(-1, 0.5), AssertionError);
}

// Property sweep: next_below is unbiased enough that each residue of a
// small modulus appears with roughly equal frequency.
class RngUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformity, ResiduesRoughlyUniform) {
  const std::uint64_t bound = GetParam();
  Rng rng(41 + bound);
  std::vector<int> counts(bound, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.next_below(bound))];
  }
  const double expected = static_cast<double>(n) / static_cast<double>(bound);
  for (const int count : counts) {
    EXPECT_NEAR(count, expected, expected * 0.25);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngUniformity,
                         ::testing::Values(2, 3, 7, 12, 16, 100));

}  // namespace
}  // namespace gridlb
