#include "common/rng.hpp"

namespace gridlb {

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) {
    x += kGoldenGamma;
    word = splitmix64_mix(x);
  }
  // All-zero state is the one invalid xoshiro state; splitmix64 cannot
  // produce four zero outputs in a row, but be defensive anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  GRIDLB_REQUIRE(lo <= hi, "uniform requires lo <= hi");
  return lo + (hi - lo) * next_double();
}

}  // namespace gridlb
