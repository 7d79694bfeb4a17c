#include "sched/local_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace gridlb::sched {

namespace {

constexpr double kStartEpsilon = 1e-9;

/// Pending-count sample: one trace event (rendered as a Chrome counter
/// track per resource) plus one histogram observation.
void observe_queue_depth(SimTime now, AgentId resource, int depth) {
  obs::emit({.at = now,
             .kind = obs::EventKind::kQueueDepth,
             .resource = resource.value(),
             .a = static_cast<double>(depth)});
  if (auto* reg = obs::registry()) {
    reg->histogram("sched.queue_depth", {0, 1, 2, 4, 8, 16, 32, 64, 128})
        .observe(static_cast<double>(depth));
  }
}

// Deterministic per-task uniform(0,1) draw, independent of call order (so
// FIFO and GA runs see identical realities for the same task).
double hash_unit(std::uint64_t seed, TaskId task) {
  const std::uint64_t x =
      splitmix64_mix(seed ^ (task.value() * kGoldenGamma));
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

void LocalScheduler::Config::validate() const {
  GRIDLB_REQUIRE(node_count >= 1 && node_count <= kMaxNodesPerResource,
                 "node count out of range");
  GRIDLB_REQUIRE(prediction_error >= 0.0 && prediction_error < 1.0,
                 "prediction error must lie in [0, 1)");
}

LocalScheduler::LocalScheduler(sim::Engine& engine,
                               const pace::PredictionTable& table,
                               Config config, CompletionSink sink)
    : engine_(engine),
      config_(std::move(config)),
      builder_(table, config_.resource, config_.node_count),
      sink_(std::move(sink)) {
  GRIDLB_REQUIRE(sink_ != nullptr, "completion sink must be set");
  config_.validate();
  node_free_.assign(static_cast<std::size_t>(config_.node_count),
                    engine_.now());
  available_ = full_mask(config_.node_count);
  last_plan_completion_ = engine_.now();
  switch (config_.policy) {
    case SchedulerPolicy::kGa:
      ga_.emplace(builder_, config_.ga, config_.seed);
      break;
    case SchedulerPolicy::kFifo:
      fifo_.emplace(table, config_.resource, config_.node_count,
                    config_.fifo_objective);
      break;
  }
}

bool LocalScheduler::supports(const std::string& environment) const {
  return std::find(config_.environments.begin(), config_.environments.end(),
                   environment) != config_.environments.end();
}

SimTime LocalScheduler::freetime() const {
  // Only available nodes count: an absent node's horizon is not backlog.
  SimTime latest = engine_.now();
  for_each_node(available_, [&](int node) {
    latest = std::max(latest, node_free_[static_cast<std::size_t>(node)]);
  });
  return std::max(latest, last_plan_completion_);
}

bool LocalScheduler::cancel(TaskId task) {
  const auto it =
      std::find_if(pending_.begin(), pending_.end(),
                   [task](const Task& pending) { return pending.id == task; });
  if (it == pending_.end()) return false;
  pending_.erase(it);
  return true;
}

std::vector<TaskId> LocalScheduler::drain_pending() {
  std::vector<TaskId> drained;
  drained.reserve(pending_.size());
  for (const Task& task : pending_) drained.push_back(task.id);
  pending_.clear();
  if (!drained.empty()) {
    log::warn("resource ", config_.resource_id.str(), " t=", engine_.now(),
              " drained ", drained.size(), " pending tasks");
  }
  return drained;
}

void LocalScheduler::set_node_available(int node, bool up) {
  GRIDLB_REQUIRE(node >= 0 && node < config_.node_count,
                 "node index out of range");
  const NodeMask bit = NodeMask{1} << node;
  const NodeMask updated = up ? (available_ | bit) : (available_ & ~bit);
  if (updated == available_) return;
  available_ = updated;
  if (!pending_.empty()) request_reschedule();
}

void LocalScheduler::submit(Task task) {
  GRIDLB_REQUIRE(task.app != nullptr, "task needs an application model");
  GRIDLB_REQUIRE(supports(task.environment),
                 "unsupported execution environment: " + task.environment);
  pending_.push_back(std::move(task));
  observe_queue_depth(engine_.now(), config_.resource_id, pending_count());
  if (config_.policy == SchedulerPolicy::kFifo) {
    // FIFO fixes the allocation immediately and permanently.
    reschedule();
  } else {
    request_reschedule();
  }
}

void LocalScheduler::request_reschedule() {
  if (reschedule_pending_) return;
  reschedule_pending_ = true;
  engine_.schedule_in(0.0, [this]() {
    reschedule_pending_ = false;
    reschedule();
  });
}

void LocalScheduler::commit(std::size_t pending_index, NodeMask mask,
                            SimTime start, SimTime end) {
  const Task task = pending_[static_cast<std::size_t>(pending_index)];
  pending_.erase(pending_.begin() +
                 static_cast<std::ptrdiff_t>(pending_index));
  if (config_.prediction_error > 0.0) {
    // The schedule was built from the prediction; reality deviates.
    const double u = hash_unit(config_.seed, task.id);
    const double factor =
        1.0 + config_.prediction_error * (2.0 * u - 1.0);
    end = start + (end - start) * factor;
  }
  for_each_node(mask, [&](int node) {
    node_free_[static_cast<std::size_t>(node)] = end;
  });
  ++running_;

  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kTaskSpan,
             .extra = static_cast<std::uint32_t>(node_count(mask)),
             .task = task.id.value(),
             .resource = config_.resource_id.value(),
             .a = start,
             .b = end});
  observe_queue_depth(engine_.now(), config_.resource_id, pending_count());

  CompletionRecord record;
  record.task = task.id;
  record.resource = config_.resource_id;
  record.mask = mask;
  record.app_name = task.app->name();
  record.submitted = task.arrival;
  record.start = start;
  record.end = end;
  record.deadline = task.deadline;

  const std::uint32_t slot = completions_.park(std::move(record));
  engine_.schedule_at(end, [this, slot]() { complete(slot); });
}

void LocalScheduler::complete(std::uint32_t slot) {
  // Taken out first: the sink may commit, and so park, in turn.
  const CompletionRecord record = completions_.take(slot);
  --running_;
  if (auto* reg = obs::registry()) {
    // Live flow counters for the continuous sampler.  Busy time is
    // node-seconds in integer microseconds, so the running totals carry
    // no floating-point rounding drift.
    reg->counter("flow.completed").add(1);
    reg->counter("flow.busy_us")
        .add(static_cast<std::uint64_t>(
                 std::llround((record.end - record.start) * 1e6)) *
             static_cast<std::uint64_t>(node_count(record.mask)));
    // Sojourn time (completion − submission): the steady-state latency
    // the open-loop campaigns track as a success criterion.
    reg->histogram("sched.latency",
                   {1, 2, 5, 10, 30, 60, 120, 300, 600, 1800, 3600, 7200})
        .observe(record.end - record.submitted);
  }
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kTaskCompleted,
             .task = record.task.value(),
             .resource = record.resource.value(),
             .a = record.deadline - record.end});  // advance time ε_j
  sink_(record);
  if (config_.policy == SchedulerPolicy::kGa && !pending_.empty()) {
    request_reschedule();
  }
}

void LocalScheduler::reschedule() {
  const SimTime now = engine_.now();
  if (pending_.empty()) return;
  if (available_ == 0) {
    // Every node is down: hold the queue until the monitor reports a
    // repair (set_node_available re-arms the reschedule).
    log::warn("resource ", config_.resource_id.str(), " t=", now,
              " holding ", pending_.size(), " task(s): no nodes available");
    return;
  }

  if (config_.policy == SchedulerPolicy::kFifo) {
    // Place every still-unplaced task in arrival order; allocations are
    // fixed the moment they are chosen.
    while (!pending_.empty()) {
      const Task& task = pending_.front();
      const FifoPlacement placement =
          fifo_->place(task, node_free_, now, available_);
      commit(0, placement.mask, placement.start, placement.end);
    }
    last_plan_completion_ = freetime();
    return;
  }

  // GA policy: re-optimise the whole pending set, then start the tasks
  // whose planned moment has arrived.
  obs::emit({.at = now,
             .kind = obs::EventKind::kGaRunStarted,
             .resource = config_.resource_id.value(),
             .a = static_cast<double>(pending_.size())});
  const GaResult result = ga_->optimize(pending_, node_free_, now, available_);
  if (obs::trace() != nullptr) {
    for (std::size_t g = 0; g < result.generations.size(); ++g) {
      obs::emit({.at = now,
                 .kind = obs::EventKind::kGaGeneration,
                 .extra = static_cast<std::uint32_t>(g),
                 .resource = config_.resource_id.value(),
                 .a = result.generations[g].best_cost,
                 .b = result.generations[g].mean_cost});
    }
  }
  obs::emit({.at = now,
             .kind = obs::EventKind::kGaRunFinished,
             .extra = static_cast<std::uint32_t>(result.generations_run),
             .resource = config_.resource_id.value(),
             .a = result.best_cost,
             .b = static_cast<double>(result.converged_at)});
  if (auto* reg = obs::registry()) {
    reg->histogram("ga.generations_to_converge",
                   {0, 1, 2, 4, 8, 12, 16, 20, 25, 50})
        .observe(static_cast<double>(result.converged_at));
  }
  last_plan_completion_ = std::max(result.schedule.completion, now);
  if (result.schedule.completion >=
      now + ScheduleBuilder::kUnavailableHorizon) {
    // The plan routes through a down node (can only happen transiently);
    // don't advertise the virtual horizon as backlog.
    last_plan_completion_ = now;
  }

  // The GA result indexes tasks by their position in `pending_` at
  // optimise time; commits erase from `pending_`, so snapshot the ids
  // first and look each task up by id when its turn comes.
  std::vector<TaskId> ids;
  ids.reserve(pending_.size());
  for (const Task& task : pending_) ids.push_back(task.id);

  // Walk positions in schedule order so earlier tasks claim their nodes
  // first; tasks whose planned start is now begin executing.
  for (int p = 0; p < result.best.task_count(); ++p) {
    const int t = result.best.task_at(p);
    const TaskPlacement& placement =
        result.schedule.placements[static_cast<std::size_t>(t)];
    if (placement.start > now + kStartEpsilon) continue;

    const TaskId id = ids[static_cast<std::size_t>(t)];
    const auto it =
        std::find_if(pending_.begin(), pending_.end(),
                     [id](const Task& task) { return task.id == id; });
    GRIDLB_ASSERT(it != pending_.end());

    // Defensive: the decode serialises node usage, so the nodes of an
    // immediately-starting task must still be free; skip (and retry at
    // the next event) if an inconsistency ever appears.
    bool nodes_free = true;
    for_each_node(placement.mask, [&](int node) {
      if (node_free_[static_cast<std::size_t>(node)] > now + kStartEpsilon) {
        nodes_free = false;
      }
    });
    if (!nodes_free) continue;

    commit(static_cast<std::size_t>(it - pending_.begin()), placement.mask,
           placement.start, placement.end);
  }
}

}  // namespace gridlb::sched
