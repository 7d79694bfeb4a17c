// Deterministic pseudo-random number generation.
//
// The case study depends on run-to-run reproducibility ("the seed is set to
// the same so that the workload for each experiment is identical"), so all
// randomness in gridlb flows through this engine rather than std::rand or
// random_device.  The generator is xoshiro256**, seeded via splitmix64; it
// is small, fast, and has well-understood statistical quality.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace gridlb {

/// splitmix64's increment, 2^64 / φ: the step between seeding inputs, and
/// the multiplier that spreads consecutive keys before a mix.
inline constexpr std::uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;

/// The splitmix64 finalizer: a stateless, full-avalanche mix of one 64-bit
/// word.  Rng's seeding, the straw-map placement hash and the per-task
/// prediction-error draw all mix through it.
constexpr std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** engine with convenience distributions.
///
/// Not thread-safe; each simulation component owns its own stream, seeded
/// from a parent stream's draws where several must stay independent.
///
/// The per-draw methods are defined inline: the GA's breeding loop makes
/// tens of millions of draws per experiment (DESIGN.md §11).
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = kGoldenGamma);

  /// Next raw 64-bit output.
  std::uint64_t next_u64() { return step(s_[0], s_[1], s_[2], s_[3]); }

  /// Uniform integer in [0, bound) with rejection sampling (no modulo bias).
  /// `bound` must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    GRIDLB_REQUIRE(bound > 0, "next_below bound must be positive");
    // Lemire-style rejection: draw until the value falls in the largest
    // multiple of `bound` that fits in 64 bits, i.e. r >= 2^64 mod bound.
    // That residue is below `bound`, so its division is needed only in
    // the rare case r < bound.
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= bound || r >= -bound % bound) return r % bound;
    }
  }

  /// Uniform double in [0, 1): the top 53 bits, scaled exactly.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli draw with probability `p` of true.  `p <= 0` and `p >= 1`
  /// are decided without consuming a draw.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// `n` (0..64) Bernoulli draws with probability `p`, in order: bit i of
  /// the result is the outcome of draw i.  Consumes exactly the stream of
  /// `n` calls to `chance(p)` and gives the same results, with the state
  /// held in registers for the whole run.  Each draw tests the 53-bit
  /// integer u behind `next_double()` against ceil(p·2^53): scaling by a
  /// power of two is exact, so u·2^-53 < p ⟺ u < p·2^53 ⟺ u < ceil(p·2^53).
  std::uint64_t bernoulli_bits(int n, double p) {
    GRIDLB_REQUIRE(n >= 0 && n <= 64, "bernoulli_bits draws 0..64 bits");
    if (n == 0 || p <= 0.0) return 0;
    if (p >= 1.0) return ~std::uint64_t{0} >> (64 - n);
    // p in (0, 1), or NaN: chance(NaN) draws and always loses.  The
    // threshold is at most 2^53 − 1, so floor and ceil are exact.
    std::uint64_t threshold = 0;
    if (p > 0.0) {
      const double scaled = p * 0x1.0p53;
      const auto floor = static_cast<std::int64_t>(scaled);
      threshold = static_cast<std::uint64_t>(floor) +
                  (static_cast<double>(floor) < scaled ? 1 : 0);
    }
    std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
    // Draws enter at the top and shift down, so draw i ends at bit i.
    // u − threshold, both below 2^53, has its top bit set iff u wins.
    constexpr std::uint64_t kTopBit = std::uint64_t{1} << 63;
    std::uint64_t bits = 0;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t u = step(s0, s1, s2, s3) >> 11;
      bits = (bits >> 1) | ((u - threshold) & kTopBit);
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
    return bits >> (64 - n);
  }

  /// Fisher–Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  /// One xoshiro256** step over the four state words.
  static std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1,
                            std::uint64_t& s2, std::uint64_t& s3) {
    const std::uint64_t result = std::rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = std::rotl(s3, 45);
    return result;
  }

  std::uint64_t s_[4];
};

}  // namespace gridlb
