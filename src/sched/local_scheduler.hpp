// The performance-driven local grid scheduler (paper §2.2, Fig. 3).
//
// One LocalScheduler manages one grid resource: a homogeneous cluster of
// processing nodes.  It reproduces the paper's six functional modules in
// simulation form:
//   * communication  — `submit` (requests in) and the completion sink /
//                      service snapshot (results + service info out),
//   * task management — the pending queue with unique task ids,
//   * GA / FIFO scheduling — the pluggable policy below,
//   * resource monitoring — per-node availability (free times) and the
//                      service-information snapshot with the advertised
//                      *freetime* ("the latest GA scheduling makespan
//                      indicates the earliest (approximate) time that
//                      corresponding processors become available"),
//   * task execution — in the paper's *test mode*: a committed task holds
//                      its nodes for exactly the PACE-predicted duration,
//   * PACE evaluation engine — the grid's shared PredictionTable.
//
// Scheduling dynamics: on every arrival and completion the GA re-optimises
// the pending queue (warm-started population); tasks whose planned start
// has arrived are committed to their nodes and leave the optimisation set
// ("once a task begins execution, it is removed from the task set T").
// The FIFO policy instead fixes each task's allocation permanently the
// moment it arrives.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "pace/evaluation_engine.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/ga_scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/slab.hpp"

namespace gridlb::sched {

enum class SchedulerPolicy { kFifo, kGa };

/// Emitted once per task at its (virtual-time) completion.
struct CompletionRecord {
  TaskId task;
  AgentId resource;
  NodeMask mask = 0;
  std::string app_name;
  SimTime submitted = 0.0;  ///< arrival at this scheduler
  SimTime start = 0.0;      ///< τ_j
  SimTime end = 0.0;        ///< η_j
  SimTime deadline = 0.0;   ///< δ_j
};

class LocalScheduler {
 public:
  struct Config {
    AgentId resource_id;
    pace::ResourceModel resource;
    int node_count = 16;
    SchedulerPolicy policy = SchedulerPolicy::kGa;
    FifoObjective fifo_objective = FifoObjective::kMinExecution;
    GaConfig ga;
    std::vector<std::string> environments = {"mpi", "pvm", "test"};
    std::uint64_t seed = 1;
    /// Prediction-accuracy study (the paper's stated future work): when
    /// non-zero, a task's *actual* execution time deviates from the PACE
    /// prediction by a deterministic multiplicative factor uniform in
    /// [1−e, 1+e].  Schedulers still plan with the predictions; reality
    /// drifts, deadlines slip, and advertised freetimes go stale.  Must
    /// lie in [0, 1): at 1 or above a task could end before it starts.
    double prediction_error = 0.0;

    /// Throws AssertionError unless the node count and the prediction
    /// error are in range.
    void validate() const;
  };

  using CompletionSink = std::function<void(const CompletionRecord&)>;

  /// `table` must outlive the scheduler and cover the configured resource
  /// with rows at least `node_count` wide.
  LocalScheduler(sim::Engine& engine, const pace::PredictionTable& table,
                 Config config, CompletionSink sink);

  LocalScheduler(const LocalScheduler&) = delete;
  LocalScheduler& operator=(const LocalScheduler&) = delete;

  /// Accepts a task for scheduling and execution.
  void submit(Task task);

  /// Removes a still-pending task from the queue (task-management
  /// "deleting" operation).  Returns false if the task already started
  /// executing or was never submitted; running tasks cannot be recalled.
  bool cancel(TaskId task);

  /// Removes every still-pending task at once — the local consequence of
  /// an agent-process crash (DESIGN.md §10).  Running tasks are untouched
  /// (they hold their nodes on the resource, not in the agent process).
  /// Returns the ids of the drained tasks so the caller can re-discover
  /// them.
  [[nodiscard]] std::vector<TaskId> drain_pending();

  /// Resource-monitoring input: marks one processing node as available or
  /// unavailable.  Down nodes finish their current task (graceful drain)
  /// but receive no new work until they return; the GA re-optimises the
  /// pending queue around the change.
  void set_node_available(int node, bool up);

  /// Nodes currently usable for new work.
  [[nodiscard]] NodeMask available_nodes() const { return available_; }

  /// Earliest (approximate) absolute time the resource's processors become
  /// available for more work — the freetime item of the Fig. 5 service
  /// document.
  [[nodiscard]] SimTime freetime() const;

  /// True if the requested execution environment is supported.
  [[nodiscard]] bool supports(const std::string& environment) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] int pending_count() const {
    return static_cast<int>(pending_.size());
  }
  [[nodiscard]] int running_count() const { return running_; }
  /// GA statistics (zero when the FIFO policy is active).
  [[nodiscard]] std::uint64_t ga_decodes() const {
    return ga_ ? ga_->total_decodes() : 0;
  }
  [[nodiscard]] std::uint64_t fifo_subsets_tried() const {
    return fifo_ ? fifo_->subsets_tried() : 0;
  }
  /// Prediction-table reads across whichever policy is active
  /// (DESIGN.md §11).
  [[nodiscard]] std::uint64_t prediction_table_reads() const {
    if (ga_) return ga_->total_table_reads();
    return fifo_ ? fifo_->table_reads() : 0;
  }

 private:
  void request_reschedule();
  void reschedule();
  void commit(std::size_t pending_index, NodeMask mask, SimTime start,
              SimTime end);
  /// Completion event of the task whose record is parked in `slot`.
  void complete(std::uint32_t slot);

  sim::Engine& engine_;
  Config config_;
  ScheduleBuilder builder_;
  std::optional<GaScheduler> ga_;
  std::optional<FifoScheduler> fifo_;
  CompletionSink sink_;

  std::vector<Task> pending_;
  /// Records of running tasks: a completion closure names its record's
  /// slot, so it fits std::function's inline buffer (sim/slab.hpp).
  sim::Slab<CompletionRecord> completions_;
  std::vector<SimTime> node_free_;
  NodeMask available_ = 0;
  SimTime last_plan_completion_ = 0.0;
  int running_ = 0;
  bool reschedule_pending_ = false;
};

}  // namespace gridlb::sched
