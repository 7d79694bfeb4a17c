// The traced driver's spans: link-time interposers over each layer's
// cross-TU public entry points, plus the span-to-metric reducer.
//
// CMakeLists.txt links perfbench_traced with -Wl,--wrap=<symbol> for every
// __wrap_<symbol> defined below, so every call into one of them from
// another object file lands in __wrap_<symbol> below, which opens a span,
// calls __real_<symbol> (the original definition) and closes the span.
// Calls inside a single .cpp file never go through the wrapper; that work
// stays in the caller's span (README.md lists which residual holds what).
//
// The interposers are written against the x86-64 SysV / Itanium C++ ABI:
// a member function is a free function taking `this` first (after the
// hidden return pointer of a class returned in memory), and a reference or
// a by-value parameter of non-trivial class type is passed as a pointer.
// So parameters the wrapper only forwards are declared `const void*`,
// which keeps this file independent of most library types.
//
// Spans live per thread: a small stack of open spans and per-kind totals
// (calls, inclusive and self time).  Self time is a span's duration
// minus what its child spans on the same thread cover.  Totals are reduced
// only between experiment runs, when no simulation thread is active; the
// driver resets and collects around every run.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <x86intrin.h>

#include "core/workload.hpp"
#include "metrics/metrics.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/ga_scheduler.hpp"
#include "sched/schedule_builder.hpp"
#include "sched/solution.hpp"
#include "trace.hpp"
#include "xml/xml.hpp"

namespace perfbench {
namespace {

enum Kind : int {
  kEngineStep,   ///< Engine::step / run_window: one event or one window
  kEngineApi,    ///< Engine::schedule_* / cancel, ShardedEngine::post
  kDrive,        ///< ShardedEngine::drive: the whole simulated run
  kNetSend,      ///< Network::send
  kGaOptimize,   ///< GaScheduler::optimize
  kGaPrepare,    ///< ScheduleBuilder::prepare
  kGaEval,       ///< ScheduleBuilder::evaluate / evaluate_from / decode
  kGaBreed,      ///< SolutionString::crossover / mutate / constrain
  kFifo,         ///< FifoScheduler::place
  kPaceEvaluate, ///< CachedEvaluator::evaluate
  kXmlParse,     ///< xml::parse
  kXmlWrite,     ///< xml::write
  kWorkload,     ///< core::generate_workload
  kReport,       ///< MetricsCollector::report
  kKindCount,
};

struct Totals {
  std::uint64_t calls = 0;
  std::int64_t inclusive_ticks = 0;
  std::int64_t self_ticks = 0;
};

struct Frame {
  int kind = 0;
  std::int64_t start = 0;
  std::int64_t children = 0;
};

constexpr int kMaxDepth = 64;

struct ThreadSpans {
  std::array<Totals, kKindCount> totals{};
  std::array<Frame, kMaxDepth> stack{};
  int depth = 0;
  /// Busy time per engine (shard), from kEngineStep spans.
  std::vector<std::pair<const void*, std::int64_t>> engine_busy;
  std::vector<std::int64_t> ga_call_ticks;
  std::uint64_t ga_tasks = 0;
};

std::mutex registry_mutex;
std::vector<std::unique_ptr<ThreadSpans>> registry;  // guarded by mutex

ThreadSpans& spans() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    auto owned = std::make_unique<ThreadSpans>();
    mine = owned.get();
    const std::lock_guard lock(registry_mutex);
    registry.push_back(std::move(owned));
  }
  return *mine;
}

/// Span clock: the TSC, about three times cheaper to read than
/// steady_clock, converted to nanoseconds at collect time against
/// steady_clock over the same interval (x86-64 with an invariant TSC).
std::int64_t now_ticks() { return static_cast<std::int64_t>(__rdtsc()); }

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calibration start, set by trace_reset.
std::int64_t reset_ticks = 0;
std::int64_t reset_ns = 0;

/// One open span; closes (and attributes its time) on destruction.
class Span {
 public:
  explicit Span(Kind kind) : spans_(spans()) {
    if (spans_.depth < kMaxDepth) {
      spans_.stack[static_cast<std::size_t>(spans_.depth)] =
          Frame{kind, now_ticks(), 0};
    }
    ++spans_.depth;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    --spans_.depth;
    if (spans_.depth >= kMaxDepth) return;
    const Frame& frame = spans_.stack[static_cast<std::size_t>(spans_.depth)];
    duration_ = now_ticks() - frame.start;
    Totals& totals = spans_.totals[static_cast<std::size_t>(frame.kind)];
    ++totals.calls;
    totals.inclusive_ticks += duration_;
    totals.self_ticks += duration_ - frame.children;
    if (spans_.depth > 0) {
      spans_.stack[static_cast<std::size_t>(spans_.depth - 1)].children +=
          duration_;
    }
    if (engine_ != nullptr) add_engine_busy();
    if (ga_call_) {
      spans_.ga_call_ticks.push_back(duration_);
      spans_.ga_tasks += ga_tasks_;
    }
  }

  /// Attributes this span's duration to `engine`'s busy time.
  void engine(const void* engine) { engine_ = engine; }
  /// Records this span as one GA call over `tasks` tasks.
  void ga_call(std::size_t tasks) {
    ga_call_ = true;
    ga_tasks_ = tasks;
  }

 private:
  void add_engine_busy() {
    for (auto& [engine, busy] : spans_.engine_busy) {
      if (engine == engine_) {
        busy += duration_;
        return;
      }
    }
    spans_.engine_busy.emplace_back(engine_, duration_);
  }

  ThreadSpans& spans_;
  std::int64_t duration_ = 0;
  const void* engine_ = nullptr;
  bool ga_call_ = false;
  std::size_t ga_tasks_ = 0;
};

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank, as metrics::percentile computes the sojourn percentiles.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace

bool trace_enabled() { return true; }

void trace_reset() {
  const std::lock_guard lock(registry_mutex);
  for (auto& thread : registry) {
    thread->totals = {};
    thread->engine_busy.clear();
    thread->ga_call_ticks.clear();
    thread->ga_tasks = 0;
  }
  reset_ns = steady_ns();
  reset_ticks = now_ticks();
}

std::map<std::string, double> trace_collect() {
  const double ns_per_tick =
      static_cast<double>(steady_ns() - reset_ns) /
      static_cast<double>(std::max<std::int64_t>(now_ticks() - reset_ticks, 1));
  std::array<Totals, kKindCount> totals{};
  std::vector<std::pair<const void*, std::int64_t>> busy;
  std::vector<double> ga_call_us;
  std::uint64_t ga_tasks = 0;
  {
    const std::lock_guard lock(registry_mutex);
    for (const auto& thread : registry) {
      for (std::size_t k = 0; k < totals.size(); ++k) {
        totals[k].calls += thread->totals[k].calls;
        totals[k].inclusive_ticks += thread->totals[k].inclusive_ticks;
        totals[k].self_ticks += thread->totals[k].self_ticks;
      }
      for (const auto& [engine, ns] : thread->engine_busy) {
        const auto it = std::find_if(busy.begin(), busy.end(),
                                     [e = engine](const auto& entry) {
                                       return entry.first == e;
                                     });
        if (it == busy.end()) {
          busy.emplace_back(engine, ns);
        } else {
          it->second += ns;
        }
      }
      for (const std::int64_t ticks : thread->ga_call_ticks) {
        ga_call_us.push_back(static_cast<double>(ticks) * ns_per_tick * 1e-3);
      }
      ga_tasks += thread->ga_tasks;
    }
  }
  const auto self = [&](Kind kind) {
    return static_cast<double>(totals[kind].self_ticks) * ns_per_tick;
  };
  const auto inclusive = [&](Kind kind) {
    return static_cast<double>(totals[kind].inclusive_ticks) * ns_per_tick;
  };
  const auto calls = [&totals](Kind kind) {
    return static_cast<double>(totals[kind].calls);
  };

  std::map<std::string, double> m;
  // sim: the engine's own entry points and the coordinator loop; the
  // events it dispatches are the agents residual below.
  m["sim.engine.self_ns"] = self(kDrive) + self(kEngineApi);
  m["sim.net.send_ns"] = self(kNetSend);
  double busy_sum = 0.0;
  double busy_max = 0.0;
  for (const auto& [engine, ticks] : busy) {
    busy_sum += static_cast<double>(ticks) * ns_per_tick;
    busy_max = std::max(busy_max, static_cast<double>(ticks) * ns_per_tick);
  }
  const double shards = static_cast<double>(std::max<std::size_t>(busy.size(), 1));
  m["sim.shard.busy_ns.max"] = busy_max;
  m["sim.shard.wait_ns"] = std::max(0.0, inclusive(kDrive) * shards - busy_sum);
  m["sim.shard.imbalance"] =
      busy_sum > 0.0 ? busy_max / (busy_sum / shards) : 0.0;

  // sched: GA and FIFO.
  m["sched.ga.calls"] = calls(kGaOptimize);
  m["sched.ga.ns"] = inclusive(kGaOptimize);
  m["sched.ga.tasks_per_call.mean"] =
      ga_call_us.empty() ? 0.0
                         : static_cast<double>(ga_tasks) /
                               static_cast<double>(ga_call_us.size());
  m["sched.ga.call_us.p50"] = percentile(ga_call_us, 50.0);
  m["sched.ga.call_us.p99"] = percentile(ga_call_us, 99.0);
  m["sched.ga.self_ns"] = self(kGaOptimize);
  m["sched.ga.prepare_ns"] = self(kGaPrepare);
  m["sched.ga.eval_ns"] = self(kGaEval);
  m["sched.ga.breed_ns"] = self(kGaBreed);
  m["sched.fifo.calls"] = calls(kFifo);
  m["sched.fifo.ns"] = self(kFifo);

  // pace: the shared prediction cache.
  m["pace.evaluate.calls"] = calls(kPaceEvaluate);
  m["pace.evaluate.ns"] = self(kPaceEvaluate);

  // agents: event time no other layer's span covers.
  m["agents.self_ns"] = self(kEngineStep);

  // xml: message documents.
  m["xml.parse.calls"] = calls(kXmlParse);
  m["xml.parse.ns"] = self(kXmlParse);
  m["xml.write.calls"] = calls(kXmlWrite);
  m["xml.write.ns"] = self(kXmlWrite);

  // core / metrics.
  m["core.workload.ns"] = inclusive(kWorkload);
  m["metrics.report.ns"] = inclusive(kReport);
  return m;
}

}  // namespace perfbench

// ---------------------------------------------------------------------------
// Interposers.  Each pair is __real_/__wrap_ of one mangled symbol; the
// build derives its --wrap list from the __wrap_ definitions.  __real_ is
// weak so that a symbol the libraries no longer define leaves the traced
// build linkable (its wrapper is then never called).

using perfbench::Span;
using gridlb::sched::DecodedSchedule;
using gridlb::sched::FifoPlacement;
using gridlb::sched::GaResult;
using gridlb::sched::ScheduleMetrics;
using gridlb::sched::SolutionString;
using gridlb::sched::Task;
using TaskSpan = std::span<const Task>;
using TimeSpan = std::span<const double>;
using NodeMask = gridlb::sched::NodeMask;

#define PB_WEAK __attribute__((weak))

extern "C" {

// --- sim -------------------------------------------------------------------

bool __real__ZN6gridlb3sim6Engine4stepEv(void* self) PB_WEAK;
bool __wrap__ZN6gridlb3sim6Engine4stepEv(void* self) {
  Span span(perfbench::kEngineStep);
  span.engine(self);
  return __real__ZN6gridlb3sim6Engine4stepEv(self);
}

void __real__ZN6gridlb3sim6Engine10run_windowEd(void* self, double bound) PB_WEAK;
void __wrap__ZN6gridlb3sim6Engine10run_windowEd(void* self, double bound) {
  Span span(perfbench::kEngineStep);
  span.engine(self);
  __real__ZN6gridlb3sim6Engine10run_windowEd(self, bound);
}

std::uint64_t __real__ZN6gridlb3sim6Engine11schedule_atEdSt8functionIFvvEE(
    void* self, double at, const void* fn) PB_WEAK;
std::uint64_t __wrap__ZN6gridlb3sim6Engine11schedule_atEdSt8functionIFvvEE(
    void* self, double at, const void* fn) {
  Span span(perfbench::kEngineApi);
  return __real__ZN6gridlb3sim6Engine11schedule_atEdSt8functionIFvvEE(self, at,
                                                                      fn);
}

std::uint64_t __real__ZN6gridlb3sim6Engine11schedule_inEdSt8functionIFvvEE(
    void* self, double delay, const void* fn) PB_WEAK;
std::uint64_t __wrap__ZN6gridlb3sim6Engine11schedule_inEdSt8functionIFvvEE(
    void* self, double delay, const void* fn) {
  Span span(perfbench::kEngineApi);
  return __real__ZN6gridlb3sim6Engine11schedule_inEdSt8functionIFvvEE(
      self, delay, fn);
}

std::uint64_t
__real__ZN6gridlb3sim6Engine21schedule_milestone_atEdSt8functionIFvvEE(
    void* self, double at, const void* fn) PB_WEAK;
std::uint64_t
__wrap__ZN6gridlb3sim6Engine21schedule_milestone_atEdSt8functionIFvvEE(
    void* self, double at, const void* fn) {
  Span span(perfbench::kEngineApi);
  return __real__ZN6gridlb3sim6Engine21schedule_milestone_atEdSt8functionIFvvEE(
      self, at, fn);
}

bool __real__ZN6gridlb3sim6Engine6cancelEm(void* self, std::uint64_t id) PB_WEAK;
bool __wrap__ZN6gridlb3sim6Engine6cancelEm(void* self, std::uint64_t id) {
  Span span(perfbench::kEngineApi);
  return __real__ZN6gridlb3sim6Engine6cancelEm(self, id);
}

void __real__ZN6gridlb3sim13ShardedEngine4postEmdSt8functionIFvvEE(
    void* self, std::size_t dest, double delay, const void* fn) PB_WEAK;
void __wrap__ZN6gridlb3sim13ShardedEngine4postEmdSt8functionIFvvEE(
    void* self, std::size_t dest, double delay, const void* fn) {
  Span span(perfbench::kEngineApi);
  __real__ZN6gridlb3sim13ShardedEngine4postEmdSt8functionIFvvEE(self, dest,
                                                                delay, fn);
}

void __real__ZN6gridlb3sim13ShardedEngine5driveERKNS0_9DriveGoalEd(
    void* self, const void* goal, double horizon) PB_WEAK;
void __wrap__ZN6gridlb3sim13ShardedEngine5driveERKNS0_9DriveGoalEd(
    void* self, const void* goal, double horizon) {
  Span span(perfbench::kDrive);
  __real__ZN6gridlb3sim13ShardedEngine5driveERKNS0_9DriveGoalEd(self, goal,
                                                                horizon);
}

void __real__ZN6gridlb3sim7Network4sendEjjNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    void* self, std::uint32_t from, std::uint32_t to,
    const void* payload) PB_WEAK;
void __wrap__ZN6gridlb3sim7Network4sendEjjNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
    void* self, std::uint32_t from, std::uint32_t to, const void* payload) {
  Span span(perfbench::kNetSend);
  __real__ZN6gridlb3sim7Network4sendEjjNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      self, from, to, payload);
}

// --- sched: GA ------------------------------------------------------------

GaResult
__real__ZN6gridlb5sched11GaScheduler8optimizeESt4spanIKNS0_4TaskELm18446744073709551615EES2_IKdLm18446744073709551615EEd(
    void* self, TaskSpan tasks, TimeSpan node_free, double now) PB_WEAK;
GaResult
__wrap__ZN6gridlb5sched11GaScheduler8optimizeESt4spanIKNS0_4TaskELm18446744073709551615EES2_IKdLm18446744073709551615EEd(
    void* self, TaskSpan tasks, TimeSpan node_free, double now) {
  Span span(perfbench::kGaOptimize);
  span.ga_call(tasks.size());
  return __real__ZN6gridlb5sched11GaScheduler8optimizeESt4spanIKNS0_4TaskELm18446744073709551615EES2_IKdLm18446744073709551615EEd(
      self, tasks, node_free, now);
}

GaResult
__real__ZN6gridlb5sched11GaScheduler8optimizeESt4spanIKNS0_4TaskELm18446744073709551615EES2_IKdLm18446744073709551615EEdj(
    void* self, TaskSpan tasks, TimeSpan node_free, double now,
    NodeMask available) PB_WEAK;
GaResult
__wrap__ZN6gridlb5sched11GaScheduler8optimizeESt4spanIKNS0_4TaskELm18446744073709551615EES2_IKdLm18446744073709551615EEdj(
    void* self, TaskSpan tasks, TimeSpan node_free, double now,
    NodeMask available) {
  Span span(perfbench::kGaOptimize);
  span.ga_call(tasks.size());
  return __real__ZN6gridlb5sched11GaScheduler8optimizeESt4spanIKNS0_4TaskELm18446744073709551615EES2_IKdLm18446744073709551615EEdj(
      self, tasks, node_free, now, available);
}

void __real__ZNK6gridlb5sched15ScheduleBuilder7prepareERNS0_13DecodeContextESt4spanIKNS0_4TaskELm18446744073709551615EES4_IKdLm18446744073709551615EEdj(
    const void* self, void* context, TaskSpan tasks, TimeSpan node_free,
    double now, NodeMask available) PB_WEAK;
void __wrap__ZNK6gridlb5sched15ScheduleBuilder7prepareERNS0_13DecodeContextESt4spanIKNS0_4TaskELm18446744073709551615EES4_IKdLm18446744073709551615EEdj(
    const void* self, void* context, TaskSpan tasks, TimeSpan node_free,
    double now, NodeMask available) {
  Span span(perfbench::kGaPrepare);
  __real__ZNK6gridlb5sched15ScheduleBuilder7prepareERNS0_13DecodeContextESt4spanIKNS0_4TaskELm18446744073709551615EES4_IKdLm18446744073709551615EEdj(
      self, context, tasks, node_free, now, available);
}

ScheduleMetrics
__real__ZNK6gridlb5sched15ScheduleBuilder8evaluateERKNS0_13DecodeContextERKNS0_14SolutionStringERNS0_13DecodeScratchE(
    const void* self, const void* context, const void* solution,
    void* scratch) PB_WEAK;
ScheduleMetrics
__wrap__ZNK6gridlb5sched15ScheduleBuilder8evaluateERKNS0_13DecodeContextERKNS0_14SolutionStringERNS0_13DecodeScratchE(
    const void* self, const void* context, const void* solution,
    void* scratch) {
  Span span(perfbench::kGaEval);
  return __real__ZNK6gridlb5sched15ScheduleBuilder8evaluateERKNS0_13DecodeContextERKNS0_14SolutionStringERNS0_13DecodeScratchE(
      self, context, solution, scratch);
}

ScheduleMetrics
__real__ZNK6gridlb5sched15ScheduleBuilder13evaluate_fromERKNS0_13DecodeContextERKNS0_14SolutionStringERNS0_13DecodeScratchEi(
    const void* self, const void* context, const void* solution,
    void* scratch, int first_changed) PB_WEAK;
ScheduleMetrics
__wrap__ZNK6gridlb5sched15ScheduleBuilder13evaluate_fromERKNS0_13DecodeContextERKNS0_14SolutionStringERNS0_13DecodeScratchEi(
    const void* self, const void* context, const void* solution,
    void* scratch, int first_changed) {
  Span span(perfbench::kGaEval);
  return __real__ZNK6gridlb5sched15ScheduleBuilder13evaluate_fromERKNS0_13DecodeContextERKNS0_14SolutionStringERNS0_13DecodeScratchEi(
      self, context, solution, scratch, first_changed);
}

DecodedSchedule
__real__ZNK6gridlb5sched15ScheduleBuilder6decodeERKNS0_13DecodeContextERKNS0_14SolutionStringERNS0_13DecodeScratchE(
    const void* self, const void* context, const void* solution,
    void* scratch) PB_WEAK;
DecodedSchedule
__wrap__ZNK6gridlb5sched15ScheduleBuilder6decodeERKNS0_13DecodeContextERKNS0_14SolutionStringERNS0_13DecodeScratchE(
    const void* self, const void* context, const void* solution,
    void* scratch) {
  Span span(perfbench::kGaEval);
  return __real__ZNK6gridlb5sched15ScheduleBuilder6decodeERKNS0_13DecodeContextERKNS0_14SolutionStringERNS0_13DecodeScratchE(
      self, context, solution, scratch);
}

SolutionString
__real__ZNK6gridlb5sched14SolutionString9crossoverERKS1_RNS_3RngEPi(
    const void* self, const void* mate, void* rng, int* first_changed) PB_WEAK;
SolutionString
__wrap__ZNK6gridlb5sched14SolutionString9crossoverERKS1_RNS_3RngEPi(
    const void* self, const void* mate, void* rng, int* first_changed) {
  Span span(perfbench::kGaBreed);
  return __real__ZNK6gridlb5sched14SolutionString9crossoverERKS1_RNS_3RngEPi(
      self, mate, rng, first_changed);
}

int __real__ZN6gridlb5sched14SolutionString6mutateEddRNS_3RngE(
    void* self, double order_swap_rate, double bit_flip_rate,
    void* rng) PB_WEAK;
int __wrap__ZN6gridlb5sched14SolutionString6mutateEddRNS_3RngE(
    void* self, double order_swap_rate, double bit_flip_rate, void* rng) {
  Span span(perfbench::kGaBreed);
  return __real__ZN6gridlb5sched14SolutionString6mutateEddRNS_3RngE(
      self, order_swap_rate, bit_flip_rate, rng);
}

int __real__ZN6gridlb5sched14SolutionString9constrainEjRNS_3RngE(
    void* self, NodeMask allowed, void* rng) PB_WEAK;
int __wrap__ZN6gridlb5sched14SolutionString9constrainEjRNS_3RngE(
    void* self, NodeMask allowed, void* rng) {
  Span span(perfbench::kGaBreed);
  return __real__ZN6gridlb5sched14SolutionString9constrainEjRNS_3RngE(
      self, allowed, rng);
}

// --- sched: FIFO ----------------------------------------------------------

FifoPlacement
__real__ZN6gridlb5sched13FifoScheduler5placeERKNS0_4TaskESt4spanIKdLm18446744073709551615EEd(
    void* self, const void* task, TimeSpan node_free, double now) PB_WEAK;
FifoPlacement
__wrap__ZN6gridlb5sched13FifoScheduler5placeERKNS0_4TaskESt4spanIKdLm18446744073709551615EEd(
    void* self, const void* task, TimeSpan node_free, double now) {
  Span span(perfbench::kFifo);
  return __real__ZN6gridlb5sched13FifoScheduler5placeERKNS0_4TaskESt4spanIKdLm18446744073709551615EEd(
      self, task, node_free, now);
}

FifoPlacement
__real__ZN6gridlb5sched13FifoScheduler5placeERKNS0_4TaskESt4spanIKdLm18446744073709551615EEdj(
    void* self, const void* task, TimeSpan node_free, double now,
    NodeMask available) PB_WEAK;
FifoPlacement
__wrap__ZN6gridlb5sched13FifoScheduler5placeERKNS0_4TaskESt4spanIKdLm18446744073709551615EEdj(
    void* self, const void* task, TimeSpan node_free, double now,
    NodeMask available) {
  Span span(perfbench::kFifo);
  return __real__ZN6gridlb5sched13FifoScheduler5placeERKNS0_4TaskESt4spanIKdLm18446744073709551615EEdj(
      self, task, node_free, now, available);
}

// --- pace -----------------------------------------------------------------

double
__real__ZN6gridlb4pace15CachedEvaluator8evaluateERKNS0_16ApplicationModelERKNS0_13ResourceModelEi(
    void* self, const void* app, const void* resource, int nproc) PB_WEAK;
double
__wrap__ZN6gridlb4pace15CachedEvaluator8evaluateERKNS0_16ApplicationModelERKNS0_13ResourceModelEi(
    void* self, const void* app, const void* resource, int nproc) {
  Span span(perfbench::kPaceEvaluate);
  return __real__ZN6gridlb4pace15CachedEvaluator8evaluateERKNS0_16ApplicationModelERKNS0_13ResourceModelEi(
      self, app, resource, nproc);
}

// --- xml ------------------------------------------------------------------

std::unique_ptr<gridlb::xml::Element>
__real__ZN6gridlb3xml5parseESt17basic_string_viewIcSt11char_traitsIcEE(
    std::string_view input) PB_WEAK;
std::unique_ptr<gridlb::xml::Element>
__wrap__ZN6gridlb3xml5parseESt17basic_string_viewIcSt11char_traitsIcEE(
    std::string_view input) {
  Span span(perfbench::kXmlParse);
  return __real__ZN6gridlb3xml5parseESt17basic_string_viewIcSt11char_traitsIcEE(
      input);
}

std::string __real__ZN6gridlb3xml5writeB5cxx11ERKNS0_7ElementEi(
    const void* root, int indent) PB_WEAK;
std::string __wrap__ZN6gridlb3xml5writeB5cxx11ERKNS0_7ElementEi(
    const void* root, int indent) {
  Span span(perfbench::kXmlWrite);
  return __real__ZN6gridlb3xml5writeB5cxx11ERKNS0_7ElementEi(root, indent);
}

// --- core / metrics -------------------------------------------------------

std::vector<gridlb::core::RequestSpec>
__real__ZN6gridlb4core17generate_workloadERKNS0_14WorkloadConfigERKNS_4pace20ApplicationCatalogueEi(
    const void* config, const void* catalogue, int agent_count) PB_WEAK;
std::vector<gridlb::core::RequestSpec>
__wrap__ZN6gridlb4core17generate_workloadERKNS0_14WorkloadConfigERKNS_4pace20ApplicationCatalogueEi(
    const void* config, const void* catalogue, int agent_count) {
  Span span(perfbench::kWorkload);
  return __real__ZN6gridlb4core17generate_workloadERKNS0_14WorkloadConfigERKNS_4pace20ApplicationCatalogueEi(
      config, catalogue, agent_count);
}

gridlb::metrics::Report
__real__ZNK6gridlb7metrics16MetricsCollector6reportESt8optionalIdE(
    const void* self, std::optional<double> window_end) PB_WEAK;
gridlb::metrics::Report
__wrap__ZNK6gridlb7metrics16MetricsCollector6reportESt8optionalIdE(
    const void* self, std::optional<double> window_end) {
  Span span(perfbench::kReport);
  return __real__ZNK6gridlb7metrics16MetricsCollector6reportESt8optionalIdE(
      self, window_end);
}

}  // extern "C"
