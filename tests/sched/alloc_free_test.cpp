// Verifies the DESIGN.md §11 claims directly: steady-state GA evaluation
// (context prepared once, then metrics-only evaluate per individual) and
// steady-state breeding (double-buffered population, reused selection
// buffers) perform zero heap allocations.
//
// The hook is a replacement global operator new that bumps a thread-local
// counter while armed.  Replacing it in one TU replaces it for the whole
// test binary, but unarmed it is behaviourally identical to the default
// (malloc-backed) allocator, so the other suites are unaffected; it also
// composes with ASan/TSan, which interpose at the malloc layer below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "pace/paper_applications.hpp"
#include "sched/ga_scheduler.hpp"

namespace {
thread_local bool g_counting = false;
thread_local std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  if (g_counting) ++g_allocations;
  void* p = nullptr;
  if (posix_memalign(&p, align, size ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the default, they would pair a sanitizer's allocation with the
// free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gridlb::sched {
namespace {

std::vector<Task> random_tasks(const pace::ApplicationCatalogue& catalogue,
                               int count, Rng& rng) {
  std::vector<Task> tasks;
  for (int i = 0; i < count; ++i) {
    Task task;
    task.id = TaskId(static_cast<std::uint64_t>(i) + 1);
    task.app = catalogue.all()[static_cast<std::size_t>(
        rng.next_below(catalogue.size()))];
    task.deadline = rng.uniform(50.0, 500.0);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

TEST(AllocFree, SteadyStateEvaluationDoesNotAllocate) {
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const int nodes = 16;
  const auto catalogue = pace::paper_catalogue();
  const pace::PredictionTable table(catalogue, {sgi}, nodes);
  ScheduleBuilder builder(table, sgi, nodes);

  Rng rng(11);
  const auto tasks = random_tasks(catalogue, 40, rng);
  const std::vector<SimTime> free(static_cast<std::size_t>(nodes), 0.0);

  std::vector<SolutionString> population;
  for (int k = 0; k < 64; ++k) {
    population.push_back(SolutionString::random(40, nodes, rng));
  }

  DecodeContext context;
  DecodeScratch scratch;
  builder.prepare(context, tasks, free, 0.0, full_mask(nodes));
  // Warm-up sizes the scratch's gap buffer to the run's worst case.
  (void)builder.evaluate(context, population.front(), scratch);

  CostWeights weights;
  double sink = 0.0;
  g_allocations = 0;
  g_counting = true;
  for (const auto& solution : population) {
    const ScheduleMetrics metrics =
        builder.evaluate(context, solution, scratch);
    sink += cost_value(metrics, weights);
  }
  g_counting = false;

  EXPECT_EQ(g_allocations, 0u);
  EXPECT_GT(sink, 0.0);  // keep the loop observable
}

TEST(AllocFree, RepreparingSameShapeContextDoesNotAllocate) {
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const int nodes = 16;
  const auto catalogue = pace::paper_catalogue();
  const pace::PredictionTable table(catalogue, {sgi}, nodes);
  ScheduleBuilder builder(table, sgi, nodes);

  Rng rng(13);
  const auto tasks = random_tasks(catalogue, 24, rng);
  std::vector<SimTime> free(static_cast<std::size_t>(nodes), 0.0);

  DecodeContext context;
  builder.prepare(context, tasks, free, 0.0, full_mask(nodes));

  // Successive runs over the same application mix reuse the context's and
  // table's capacity: the re-prepare is allocation-free as well.
  for (auto& f : free) f += 5.0;
  g_allocations = 0;
  g_counting = true;
  builder.prepare(context, tasks, free, 5.0, full_mask(nodes));
  g_counting = false;
  EXPECT_EQ(g_allocations, 0u);
}

// Heap allocations made by the third optimize() call on one task set:
// the first two grow both population buffers and every reused vector to
// the task set, so what remains is per-call work (task-set sync, greedy
// seeds, the result), which must not scale with the generation count.
std::uint64_t steady_optimize_allocations(int generations) {
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  const int nodes = 16;
  const auto catalogue = pace::paper_catalogue();
  const pace::PredictionTable table(catalogue, {sgi}, nodes);
  ScheduleBuilder builder(table, sgi, nodes);

  Rng rng(17);
  const auto tasks = random_tasks(catalogue, 20, rng);
  const std::vector<SimTime> free(static_cast<std::size_t>(nodes), 0.0);

  GaConfig config;
  config.generations = generations;
  GaScheduler scheduler(builder, config, 5);
  (void)scheduler.optimize(tasks, free, 0.0);
  (void)scheduler.optimize(tasks, free, 0.0);

  g_allocations = 0;
  g_counting = true;
  const GaResult result = scheduler.optimize(tasks, free, 0.0);
  g_counting = false;
  EXPECT_EQ(result.generations_run, generations);
  return g_allocations;
}

TEST(AllocFree, SteadyStateGenerationDoesNotAllocate) {
  const std::uint64_t short_run = steady_optimize_allocations(3);
  const std::uint64_t long_run = steady_optimize_allocations(30);
  EXPECT_EQ(short_run, long_run);
  EXPECT_GT(short_run, 0u);  // the hook does see the per-call work
}

}  // namespace
}  // namespace gridlb::sched
