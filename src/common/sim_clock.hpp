// Process-wide published simulation time.
//
// The discrete-event engine is the only component that knows the current
// virtual time, but the logger, outside the event loop, needs it to prefix
// narration with sim-time.
// The engine publishes its clock here with one relaxed store per event;
// readers take one relaxed load.  The value is advisory — exact ordering
// across threads is not required, only a usable timestamp.
#pragma once

#include <atomic>

#include "common/types.hpp"

namespace gridlb::simclock {

namespace detail {
inline std::atomic<SimTime>& storage() {
  static std::atomic<SimTime> time{kNoTime};
  return time;
}
}  // namespace detail

/// Called by the engine as its clock advances.
inline void publish(SimTime now) {
  detail::storage().store(now, std::memory_order_relaxed);
}

/// Last published virtual time, or kNoTime if no engine has run yet.
[[nodiscard]] inline SimTime now() {
  return detail::storage().load(std::memory_order_relaxed);
}

/// True once an engine has published a clock value.
[[nodiscard]] inline bool available() { return now() >= 0.0; }

/// Returns the clock to the "no engine has run" state (used by tests).
inline void reset() { detail::storage().store(kNoTime, std::memory_order_relaxed); }

}  // namespace gridlb::simclock
