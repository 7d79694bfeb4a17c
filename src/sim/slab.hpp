// Values that wait for an event, named by slot.
//
// An event's callback is a std::function<void()>, whose inline buffer
// holds a trivially copyable closure of up to two words; a larger closure
// costs a heap allocation per event.  So an owner with more state per
// event parks it in a Slab and schedules a closure of itself and the slot.
// Slots are reused through a free list: once the slab has grown to the
// run's depth, parking and taking allocate nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace gridlb::sim {

template <class T>
class Slab {
 public:
  /// Stores `value` in a free slot and returns the slot.
  [[nodiscard]] std::uint32_t park(T value) {
    if (free_.empty()) {
      GRIDLB_REQUIRE(values_.size() < UINT32_MAX, "too many parked values");
      values_.push_back(std::move(value));
      return static_cast<std::uint32_t>(values_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    values_[slot] = std::move(value);
    return slot;
  }

  /// Moves the value out of `slot` and frees the slot.  The value leaves
  /// first, so what it does may park into this slab, even into the slot.
  T take(std::uint32_t slot) {
    T value = std::move(values_[slot]);
    free_.push_back(slot);
    return value;
  }

 private:
  std::vector<T> values_;
  std::vector<std::uint32_t> free_;
};

}  // namespace gridlb::sim
