// A simulation partitioned across N event queues, merged into one order.
//
// Agents are pinned to queues at scenario-build time (one sim::Engine per
// shard).  Every queue of the run numbers its schedules from one shared
// counter, and drive() always executes the pending event with the
// smallest (at, seq) key over all queues, so a partitioned run executes
// exactly the event sequence of one queue: results are identical at any
// shard count by construction (DESIGN.md §13).  A post to another queue
// is enqueued there at once.
//
// The partition buys no speed — the run stays on the calling thread.  It
// is kept only while the end-to-end benchmark still builds multi-shard
// runs; the one parallelism axis is across independent runs
// (core::run_many, DESIGN.md §8).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"

namespace gridlb::sim {

/// Stop predicate for drive(): the run is complete once `done` returns
/// true, checked before every event.
///
/// `until` is the optional open-loop cutoff: the drive also finishes once
/// every pending event is at `until` or later, i.e. it executes exactly
/// the events with time < until.  kTimeInfinity (the default) disables the
/// cutoff, restoring the closed-loop behaviour where a drained queue
/// before `done()` is an error.
struct DriveGoal {
  std::function<bool()> done;
  SimTime until = kTimeInfinity;
};

class ShardedEngine {
 public:
  /// Builds `shards` (>= 1) queues sharing one sequence counter.
  explicit ShardedEngine(std::size_t shards);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return engines_.size(); }
  [[nodiscard]] Engine& shard(std::size_t s) { return *engines_[s]; }

  /// Schedules `fn` on shard `dest` at the calling context's now + delay:
  /// the executing event's clock inside an event, the destination's clock
  /// outside any event (scenario setup).
  void post(std::size_t dest, SimTime delay, EventFn fn);

  /// Runs the simulation until `goal.done()`; raises an assertion error
  /// when the queues drain early or the next event lies past `horizon`.
  void drive(const DriveGoal& goal, SimTime horizon);

  /// Sums over shards.
  [[nodiscard]] std::uint64_t events_processed() const;
  [[nodiscard]] std::uint64_t events_swept() const;
  /// Max over shards == the timestamp of the last executed event.
  [[nodiscard]] SimTime max_now() const;

 private:
  std::uint64_t next_seq_ = 1;
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace gridlb::sim
