// CRUSH-style stateless hashed placement (DESIGN.md §15).
//
// The agent hierarchy resolves every request by walking advertised
// service information: O(depth) messages per request and a staleness
// window at every hop.  HashPlacement replaces that walk with a pure
// function.  Each resource is a *straw* whose length for a given request
// key is drawn from a deterministic hash of (seed, key, resource id),
// scaled by the resource's weight; the longest straw wins.  This is
// Ceph's straw2 bucket (exponential order statistics: a draw of
// ln(u)/w is the negated Exp(w) variate, so target i wins with
// probability wᵢ/Σw exactly), which carries two properties the hierarchy
// cannot offer:
//
//  * zero placement traffic — any frontend holding the (small, rarely
//    changing) weighted map computes the same placement with no
//    discovery messages and no shared state, and
//  * bounded remapping — a target's draw never depends on any other
//    target, so removing (or re-weighting) one resource remaps exactly
//    the keys that resource was winning: an expected wᵢ/Σw fraction,
//    and no key moves between two surviving resources.
//
// Weights default to hardware capacity (node count over the PACE
// performance factor).  A load tracker discounts a target's
// weight by the backlog the *placer itself* has routed there — optimistic
// local bookkeeping in the spirit of the ACT freetime advance, still
// involving no messages.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "pace/hardware.hpp"

namespace gridlb::sched {

/// One placement candidate: a grid resource and its relative capacity.
struct PlacementTarget {
  AgentId resource;     ///< stable hash identity (1-based agent id)
  double weight = 1.0;  ///< relative capacity, > 0
};

/// Result of one placement.
struct PlacementDecision {
  std::size_t index = 0;  ///< position in the target list
  AgentId resource;       ///< targets()[index].resource
  double draw = 0.0;      ///< winning straw value (≤ 0; diagnostics)
};

class HashPlacement {
 public:
  /// Placement-map generation: the seed every straw draw hashes, so any
  /// frontend holding the same targets computes the same placement.
  static constexpr std::uint64_t kSeed = 0x6c6f6164;
  /// Backlog discount time constant τ in seconds: a target carrying b
  /// seconds of tracked backlog competes with weight w / (1 + b/τ).
  static constexpr double kLoadTau = 60.0;

  explicit HashPlacement(std::vector<PlacementTarget> targets);

  /// Default capacity weight of a homogeneous resource: node count over
  /// the PACE slowdown factor (a 16-node SGI outweighs a 16-node SPARC).
  [[nodiscard]] static double hardware_weight(
      const pace::ResourceModel& model, int node_count);

  /// Places `key` on a target — a pure function of (seed, key, live
  /// weights).  `now` only matters once dispatches have been recorded.
  /// At least one target must be available.
  [[nodiscard]] PlacementDecision place(std::uint64_t key,
                                        SimTime now = 0.0) const;

  /// Optimistic local bookkeeping: `occupancy` seconds of backlog were
  /// just routed to target `index` at time `now`.
  void record_dispatch(std::size_t index, SimTime now, double occupancy);

  /// Marks a target in or out of the map (resource churn).  Draws for
  /// the surviving targets are unaffected — the bounded-remap property.
  void set_available(std::size_t index, bool up);

  [[nodiscard]] const std::vector<PlacementTarget>& targets() const {
    return targets_;
  }
  /// Σ weight over available targets (static weights; load discounts are
  /// per-place-call and excluded).
  [[nodiscard]] double total_weight() const;

 private:
  std::vector<PlacementTarget> targets_;
  std::vector<char> available_;
  std::vector<SimTime> busy_until_;  ///< tracked backlog horizon per target
};

}  // namespace gridlb::sched
