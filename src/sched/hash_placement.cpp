#include "sched/hash_placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace gridlb::sched {

namespace {

/// One splitmix64 round: placement only needs a stationary hash (no
/// stream), so one round per word keeps place() cheap.
std::uint64_t mix64(std::uint64_t x) {
  return splitmix64_mix(x + kGoldenGamma);
}

/// Hash of (seed, key, target) mapped to (0, 1]: the top 53 bits make the
/// mantissa, +1 excludes zero so the logarithm below is always finite.
double unit_draw(std::uint64_t seed, std::uint64_t key, std::uint64_t target) {
  const std::uint64_t h = mix64(mix64(seed ^ key) ^ target);
  return (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
}

}  // namespace

HashPlacement::HashPlacement(std::vector<PlacementTarget> targets)
    : targets_(std::move(targets)) {
  GRIDLB_REQUIRE(!targets_.empty(), "placement needs at least one target");
  for (const PlacementTarget& target : targets_) {
    GRIDLB_REQUIRE(target.resource.valid(),
                   "placement target needs a valid resource id");
    GRIDLB_REQUIRE(target.weight > 0.0,
                   "placement weights must be positive");
  }
  available_.assign(targets_.size(), 1);
  busy_until_.assign(targets_.size(), 0.0);
}

double HashPlacement::hardware_weight(const pace::ResourceModel& model,
                                      int node_count) {
  GRIDLB_REQUIRE(node_count >= 1 && model.factor > 0.0,
                 "hardware weight needs nodes and a positive factor");
  return static_cast<double>(node_count) / model.factor;
}

PlacementDecision HashPlacement::place(std::uint64_t key, SimTime now) const {
  // Straw2: every available target draws ln(u)/w — a negative number
  // closer to zero the heavier the target — and the largest draw wins.
  // Each draw depends only on (seed, key, own id, own weight), never on
  // the other targets, which is the whole remapping contract.
  PlacementDecision best;
  double best_draw = -std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (!available_[i]) continue;
    const double backlog = std::max(0.0, busy_until_[i] - now);
    const double weight = targets_[i].weight / (1.0 + backlog / kLoadTau);
    const double draw =
        std::log(unit_draw(kSeed, key, targets_[i].resource.value())) /
        weight;
    if (!found || draw > best_draw) {
      found = true;
      best_draw = draw;
      best.index = i;
    }
  }
  GRIDLB_REQUIRE(found, "placement has no available target");
  best.resource = targets_[best.index].resource;
  best.draw = best_draw;
  return best;
}

void HashPlacement::record_dispatch(std::size_t index, SimTime now,
                                    double occupancy) {
  GRIDLB_REQUIRE(index < targets_.size(), "placement target out of range");
  busy_until_[index] =
      std::max(busy_until_[index], now) + std::max(0.0, occupancy);
}

void HashPlacement::set_available(std::size_t index, bool up) {
  GRIDLB_REQUIRE(index < targets_.size(), "placement target out of range");
  available_[index] = up ? 1 : 0;
}

double HashPlacement::total_weight() const {
  double total = 0.0;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (available_[i]) total += targets_[i].weight;
  }
  return total;
}

}  // namespace gridlb::sched
