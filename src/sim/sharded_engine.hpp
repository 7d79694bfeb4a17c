// Conservative-lookahead shard coordinator for the discrete-event engine.
//
// Partitions one simulation across N sim::Engine shards (one event queue
// per shard, agents pinned to shards at scenario-build time) and drives
// them on one thread per shard.  Synchronization is classic conservative
// lookahead: the network's delivery latency L bounds how soon anything an
// event does can affect another shard, so all events in the global window
// [t_min, t_min + L) are mutually independent across shards and can run in
// parallel.  Cross-shard sends are buffered in per-shard outboxes during a
// window and injected into their destination queues at the barrier — never
// earlier than their safe time (>= window bound).
//
// Determinism contract (see DESIGN.md §13): a sharded run produces the
// bit-for-bit identical ExperimentResult for any shard count.  Two
// mechanisms carry this:
//   1. Lineage ordering (engine.hpp): every shard, a lone one included,
//      breaks equal-time ties by the partition-independent key (at,
//      parent's global execution rank, child index).  Ranks are assigned
//      by a k-way merge over the shards' window execution logs when each
//      window is sealed.
//   2. Exact stop: when the pending milestones (task completions) due
//      inside the next window could finish the run, the coordinator
//      switches to a serial globally-merged stepping mode so the run halts
//      at exactly the same event as a single-queue run — preserving
//      finished_at, sim_events and every other counter.  One shard runs
//      only this serial loop: no threads, windows or barriers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"

namespace gridlb::obs {
class Counter;
class Gauge;
}  // namespace gridlb::obs

namespace gridlb::sim {

/// Stop predicate for drive(): `done` flips when the run is complete and
/// `remaining` reports how many milestone executions are still needed (used
/// for the exact-stop decision).  Both are only called from the
/// coordinator slot between barriers, never concurrently.
///
/// `until` is the optional open-loop cutoff: the drive also finishes once
/// every pending event is at `until` or later, i.e. it executes exactly
/// the events with time < until.  Because that set is a property of the
/// global event timeline — not of any shard partition — a time-bounded
/// drive is shard-count invariant by construction, with no serial tail
/// needed.  kTimeInfinity (the default) disables the cutoff, restoring
/// the closed-loop behaviour where a drained queue before `done()` is an
/// error.
struct DriveGoal {
  std::function<bool()> done;
  std::function<std::uint64_t()> remaining;
  SimTime until = kTimeInfinity;
};

/// A sense-reversing spin barrier with an abort switch: kill() releases
/// every current and future waiter with a `false` return so a throwing
/// shard cannot deadlock the others.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}

  /// Returns false if the barrier was killed.
  bool arrive_and_wait();
  void kill();

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> phase_{0};
  std::atomic<bool> killed_{false};
};

class ShardedEngine {
 public:
  /// Builds `shards` lineage-ordered engines; more than one requires a
  /// positive `lookahead` (the network latency).
  ShardedEngine(std::size_t shards, SimTime lookahead);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return engines_.size(); }
  [[nodiscard]] bool sharded() const { return engines_.size() > 1; }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }
  [[nodiscard]] Engine& shard(std::size_t s) { return *engines_[s]; }

  /// Schedules `fn` on shard `dest` at the calling context's now + delay.
  /// From inside an event this routes same-shard schedules directly and
  /// buffers cross-shard ones (which must respect the lookahead:
  /// delay >= lookahead()).  Outside any event (scenario setup) it
  /// schedules directly with genesis lineage.
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
  enum class DecisionKind { kParallel, kSerial, kFinished };
  struct Decision {
    DecisionKind kind = DecisionKind::kFinished;
    SimTime bound = 0.0;
  };
  struct Posted {
    std::size_t dest;
    SimTime at;
    Engine::ChildRef ref;
    EventFn fn;
  };

  /// Per-shard engine telemetry (DESIGN.md §14), published into the
  /// active obs::MetricsRegistry when one is installed at drive() time:
  /// `shard.<s>.events` / `.barrier_wait_ns` / `.outbox_messages` /
  /// `.serial_events` / `.events_swept` counters, `shard.windows` /
  /// `shard.serial_entries` run-wide counters, and a derived
  /// `shard.load_imbalance` gauge — the running mean over windows of
  /// (max events on one shard) / (mean events per shard).  All counters
  /// are registry instruments, so enabling them never touches
  /// ExperimentResult; barrier-wait time is wall-clock and therefore the
  /// one deliberately nondeterministic number in the registry.
  struct Telemetry {
    std::vector<obs::Counter*> events;
    std::vector<obs::Counter*> barrier_wait_ns;
    std::vector<obs::Counter*> outbox_messages;
    std::vector<obs::Counter*> serial_events;
    obs::Counter* windows = nullptr;
    obs::Counter* serial_entries = nullptr;
    obs::Gauge* load_imbalance = nullptr;
    std::vector<std::uint64_t> window_base;  ///< events at window start
    std::vector<std::uint64_t> swept_base;   ///< swept at drive start
    double imbalance_sum = 0.0;
    std::uint64_t imbalance_windows = 0;
  };

  void worker(std::size_t s, const DriveGoal& goal);
  void decide(const DriveGoal& goal);
  void run_serial(const DriveGoal& goal);
  void seal_window();
  void drain_outboxes();
  void setup_telemetry();
  void flush_window_telemetry();
  bool await(std::size_t s);  ///< arrive_and_wait, timed when telemetry on

  SimTime lookahead_ = 0.0;
  LineageShared shared_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::vector<Posted>> outbox_;  // one per source shard

  // drive() state; written/read only in barrier-separated phases.
  SimTime horizon_ = 0.0;
  std::vector<SimTime> next_times_;
  Decision decision_;
  SpinBarrier* barrier_ = nullptr;
  std::unique_ptr<Telemetry> telemetry_;
};

}  // namespace gridlb::sim
