#include "sched/fifo_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::sched {
namespace {

struct FifoFixture : ::testing::Test {
  pace::ResourceModel sgi =
      pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  pace::PredictionTable table{catalogue, {sgi}, 16};

  Task make_task(const char* app, double deadline = 1e6) {
    Task task;
    task.id = TaskId(1);
    task.app = catalogue.find(app);
    task.deadline = deadline;
    return task;
  }
};

TEST_F(FifoFixture, MinExecutionPicksFastestAllocation) {
  // cpi's fastest point is 12 processors (2 s); with idle nodes the
  // min-execution FIFO must allocate exactly 12.
  FifoScheduler fifo(table, sgi, 16, FifoObjective::kMinExecution);
  const std::vector<SimTime> idle(16, 0.0);
  const auto placement = fifo.place(make_task("cpi"), idle, 0.0);
  EXPECT_EQ(node_count(placement.mask), 12);
  EXPECT_DOUBLE_EQ(placement.end - placement.start, 2.0);
}

TEST_F(FifoFixture, MinExecutionWaitsForFastAllocationEvenIfSlowerOverall) {
  // Nodes 0..11 are busy until t=100; running cpi on the 4 idle nodes
  // would take 17 s (done by 17), but min-execution FIFO insists on a
  // 12-node allocation and waits.
  FifoScheduler fifo(table, sgi, 16, FifoObjective::kMinExecution);
  std::vector<SimTime> free(16, 0.0);
  for (int i = 0; i < 12; ++i) free[static_cast<std::size_t>(i)] = 100.0;
  const auto placement = fifo.place(make_task("cpi"), free, 0.0);
  EXPECT_EQ(node_count(placement.mask), 12);
  EXPECT_DOUBLE_EQ(placement.end, 102.0);
}

TEST_F(FifoFixture, MinExecutionPrefersEarliestStartAmongEqualExec) {
  // closure takes 2 s at 15 or 16 processors; with node 15 busy the 15-node
  // allocation starts now and must win over waiting for all 16.
  FifoScheduler fifo(table, sgi, 16, FifoObjective::kMinExecution);
  std::vector<SimTime> free(16, 0.0);
  free[15] = 50.0;
  const auto placement = fifo.place(make_task("closure"), free, 0.0);
  EXPECT_DOUBLE_EQ(placement.start, 0.0);
  EXPECT_EQ(node_count(placement.mask), 15);
}

TEST_F(FifoFixture, MinCompletionTradesWidthForStart) {
  // Same situation, min-completion objective: running cpi narrow on idle
  // nodes beats waiting for the wide allocation.
  FifoScheduler fifo(table, sgi, 16, FifoObjective::kMinCompletion);
  std::vector<SimTime> free(16, 0.0);
  for (int i = 0; i < 12; ++i) free[static_cast<std::size_t>(i)] = 100.0;
  const auto placement = fifo.place(make_task("cpi"), free, 0.0);
  EXPECT_DOUBLE_EQ(placement.start, 0.0);
  EXPECT_DOUBLE_EQ(placement.end, 17.0);  // cpi@4 = 17 s
  EXPECT_EQ(placement.mask & 0xFFFu, 0u);  // only idle nodes used
}

TEST_F(FifoFixture, MinCompletionOnIdleMachineMatchesMinExecution) {
  const std::vector<SimTime> idle(16, 0.0);
  FifoScheduler a(table, sgi, 16, FifoObjective::kMinExecution);
  FifoScheduler b(table, sgi, 16, FifoObjective::kMinCompletion);
  for (const auto& app : catalogue.all()) {
    const auto task = make_task(app->name().c_str());
    EXPECT_DOUBLE_EQ(a.place(task, idle, 0.0).end,
                     b.place(task, idle, 0.0).end)
        << app->name();
  }
}

TEST_F(FifoFixture, TieBreaksPreferFewerNodesThenLowerMask) {
  // closure at 15 vs 16 processors both take 2 s on an idle machine; the
  // 15-node allocation (fewer nodes) must win, and among the sixteen
  // 15-node subsets the lowest mask (nodes 0..14).
  FifoScheduler fifo(table, sgi, 16, FifoObjective::kMinExecution);
  const std::vector<SimTime> idle(16, 0.0);
  const auto placement = fifo.place(make_task("closure"), idle, 0.0);
  EXPECT_EQ(node_count(placement.mask), 15);
  EXPECT_EQ(placement.mask, full_mask(15));
}

TEST_F(FifoFixture, EnumeratesEverySubset) {
  FifoScheduler fifo(table, sgi, 16);
  const std::vector<SimTime> idle(16, 0.0);
  (void)fifo.place(make_task("fft"), idle, 0.0);
  EXPECT_EQ(fifo.subsets_tried(), 65535u);  // 2^16 − 1, as the paper says
  (void)fifo.place(make_task("fft"), idle, 0.0);
  EXPECT_EQ(fifo.subsets_tried(), 131070u);
}

TEST_F(FifoFixture, ClampsPastFreeTimesToNow) {
  FifoScheduler fifo(table, sgi, 16);
  const std::vector<SimTime> stale(16, -500.0);
  const auto placement = fifo.place(make_task("fft"), stale, 42.0);
  EXPECT_DOUBLE_EQ(placement.start, 42.0);
}

TEST_F(FifoFixture, SmallResource) {
  FifoScheduler fifo(table, sgi, 1);
  const std::vector<SimTime> idle(1, 0.0);
  const auto placement = fifo.place(make_task("sweep3d"), idle, 0.0);
  EXPECT_EQ(placement.mask, 1u);
  EXPECT_DOUBLE_EQ(placement.end, 50.0);
  EXPECT_EQ(fifo.subsets_tried(), 1u);
}

TEST_F(FifoFixture, RejectsMismatchedFreeVector) {
  FifoScheduler fifo(table, sgi, 16);
  const std::vector<SimTime> wrong(4, 0.0);
  EXPECT_THROW((void)fifo.place(make_task("fft"), wrong, 0.0),
               AssertionError);
}

// Property: min-completion FIFO is optimal against brute force over the
// k-earliest-free reduction for every application and load pattern.
class FifoOptimality : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> paper_app_names() {
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  std::vector<std::string> names;
  for (const auto& app : catalogue.all()) names.push_back(app->name());
  return names;
}

TEST_P(FifoOptimality, MinCompletionBeatsAllSubsets) {
  const auto ultra = pace::ResourceModel::of(pace::HardwareType::kSunUltra1);
  const auto catalogue = pace::paper_catalogue();
  const pace::PredictionTable table(catalogue, {ultra}, 8);
  FifoScheduler fifo(table, ultra, 8, FifoObjective::kMinCompletion);
  Task task;
  task.id = TaskId(1);
  task.app = catalogue.find(GetParam());
  task.deadline = 1e6;

  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<SimTime> free(8);
    for (auto& f : free) f = rng.uniform(0.0, 50.0);
    const auto placement = fifo.place(task, free, 0.0);
    // Brute force: sort free times; the best completion for width k uses
    // the k earliest-free nodes.
    auto sorted = free;
    std::sort(sorted.begin(), sorted.end());
    double best = 1e300;
    for (int k = 1; k <= 8; ++k) {
      const double exec = task.app->reference_time(k) * ultra.factor;
      best = std::min(best, sorted[static_cast<std::size_t>(k - 1)] + exec);
    }
    EXPECT_DOUBLE_EQ(placement.end, best);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, FifoOptimality,
                         ::testing::ValuesIn(paper_app_names()));

// The subset enumeration FifoScheduler::place used before its per-width
// closed form, kept verbatim as the reference: every non-empty mask in
// ascending order, with the original comparison and tie-breaks.  The
// parameters carry the scheduler's member names so the body is unchanged.
FifoPlacement enumerate_place(const double* exec_row,
                              std::span<const SimTime> node_free, SimTime now,
                              NodeMask available, int node_count_,
                              FifoObjective objective_) {
  std::array<SimTime, kMaxNodesPerResource> free{};
  for (int i = 0; i < node_count_; ++i) {
    free[static_cast<std::size_t>(i)] =
        std::max(node_free[static_cast<std::size_t>(i)], now);
  }
  FifoPlacement best;
  double best_exec = 0.0;
  bool have_best = false;
  const std::uint64_t all = full_mask(node_count_);
  for (std::uint64_t raw = 1; raw <= all; ++raw) {
    const auto mask = static_cast<NodeMask>(raw);
    if ((mask & ~available) != 0) continue;  // touches a down node
    SimTime start = now;
    for_each_node(mask, [&](int node) {
      start = std::max(start, free[static_cast<std::size_t>(node)]);
    });
    const double exec = exec_row[node_count(mask) - 1];
    const SimTime end = start + exec;
    bool better;
    if (objective_ == FifoObjective::kMinExecution) {
      better = !have_best || exec < best_exec ||
               (exec == best_exec && end < best.end);
    } else {
      better = !have_best || end < best.end;
    }
    if (!better && have_best &&
        ((objective_ == FifoObjective::kMinExecution &&
          exec == best_exec && end == best.end) ||
         (objective_ == FifoObjective::kMinCompletion && end == best.end))) {
      better = node_count(mask) < node_count(best.mask) ||
               (node_count(mask) == node_count(best.mask) && mask < best.mask);
    }
    if (better) {
      have_best = true;
      best_exec = exec;
      best = FifoPlacement{mask, start, end};
    }
  }
  GRIDLB_ASSERT(have_best);
  return best;
}

// The k available nodes a naive closed form would take: earliest-free
// first, lower index among equal free times.
NodeMask earliest_free_mask(std::span<const SimTime> node_free, SimTime now,
                            NodeMask available, int k) {
  std::vector<std::pair<SimTime, int>> order;
  for_each_node(available, [&](int node) {
    order.emplace_back(std::max(node_free[static_cast<std::size_t>(node)], now),
                       node);
  });
  std::sort(order.begin(), order.end());
  NodeMask mask = 0;
  for (int i = 0; i < k; ++i) {
    mask |= NodeMask{1} << order[static_cast<std::size_t>(i)].second;
  }
  return mask;
}

// Differential property: the closed form returns exactly what the
// enumeration returns — same mask, and start/end equal with `==`, not
// within a tolerance — on adversarial loads.  Free times are drawn from a
// small pool around a base x (x, its next double, x plus sub-ulp-of-sum
// offsets) so equal free times and rounding collapses of free + t_x are
// common, plus times in the past that clamp to `now`.
TEST(FifoDifferential, ClosedFormMatchesEnumeration) {
  const auto catalogue = pace::paper_catalogue();
  std::vector<pace::ResourceModel> platforms;
  for (const auto hardware : pace::all_hardware_types()) {
    platforms.push_back(pace::ResourceModel::of(hardware));
  }
  const pace::PredictionTable table(catalogue, platforms, 16);
  Rng rng(2003);
  int cases = 0;
  int collapses = 0;  // winner is not the earliest-free k nodes
  for (int n = 1; n <= 16; ++n) {
    for (const auto objective :
         {FifoObjective::kMinExecution, FifoObjective::kMinCompletion}) {
      for (const auto hardware : pace::all_hardware_types()) {
        const auto resource = pace::ResourceModel::of(hardware);
        FifoScheduler fifo(table, resource, n, objective);
        const int trials = n <= 12 ? 24 : 6;
        for (int trial = 0; trial < trials; ++trial) {
          Task task;
          task.id = TaskId(1);
          task.app = catalogue.all()[static_cast<std::size_t>(
              rng.next_below(catalogue.size()))];
          task.deadline = 1e6;
          const SimTime now = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 20.0);
          const double x = rng.uniform(0.0, 40.0);
          const std::array<SimTime, 8> pool = {
              now - 7.0,
              now,
              x,
              std::nextafter(x, 1e300),
              x + 1e-12,
              x + 1e-9,
              x + 0.5,
              rng.uniform(0.0, 80.0)};
          std::vector<SimTime> free(static_cast<std::size_t>(n));
          for (auto& f : free) f = pool[rng.next_below(pool.size())];
          NodeMask available = full_mask(n);
          if (rng.chance(0.5)) {
            available &= static_cast<NodeMask>(rng.next_u64());
            if (available == 0) {
              available = NodeMask{1} << rng.next_below(
                                static_cast<std::uint64_t>(n));
            }
          }

          const double* row = table.row(*task.app, resource).data();
          const auto want =
              enumerate_place(row, free, now, available, n, objective);
          const auto got = fifo.place(task, free, now, available);
          ++cases;
          if (want.mask != earliest_free_mask(free, now, available,
                                              node_count(want.mask))) {
            ++collapses;
          }
          ASSERT_EQ(got.mask, want.mask)
              << "n=" << n << " trial=" << trial << " app="
              << task.app->name();
          ASSERT_EQ(got.start, want.start) << "n=" << n << " trial=" << trial;
          ASSERT_EQ(got.end, want.end) << "n=" << n << " trial=" << trial;
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 5 * (12 * 24 + 4 * 6));
  // The pool must actually reach the subtle path: winners that a plain
  // "k earliest-free nodes" rule would get wrong.
  EXPECT_GT(collapses, 0);
}

}  // namespace
}  // namespace gridlb::sched
