#include "common/rng.hpp"

namespace gridlb {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
  // All-zero state is the one invalid xoshiro state; splitmix64 cannot
  // produce four zero outputs in a row, but be defensive anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  GRIDLB_REQUIRE(lo <= hi, "uniform requires lo <= hi");
  return lo + (hi - lo) * next_double();
}

Rng Rng::split() {
  Rng child(next_u64());
  return child;
}

}  // namespace gridlb
