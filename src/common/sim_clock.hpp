// Process-wide published simulation time.
//
// The discrete-event engine is the only component that knows the current
// virtual time, but the logger, outside the event loop, needs it to prefix
// narration with sim-time (the trace recorder reads the shard stamp below).
// The engine publishes its clock here with one relaxed store per event;
// readers take one relaxed load.  The value is advisory — exact ordering
// across threads is not required, only a usable timestamp.
#pragma once

#include <atomic>
#include <cstdint>

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

namespace detail {
/// The shard whose event is executing on this thread, biased by +1 so 0
/// means "unsharded / outside any shard event".  Per-thread because each
/// shard of a partitioned simulation is driven by its own worker.
inline thread_local std::uint16_t tls_shard = 0;
}  // namespace detail

/// Called by the engine on every event: 1 + shard index when the
/// simulation has several shards, 0 otherwise.
inline void publish_shard(std::uint16_t shard_plus_one) {
  detail::tls_shard = shard_plus_one;
}

/// 1 + the executing shard, or 0 when unsharded.  Trace events are
/// stamped with this so exporters can group a sharded run by shard.
[[nodiscard]] inline std::uint16_t current_shard() {
  return detail::tls_shard;
}

}  // namespace gridlb::simclock
