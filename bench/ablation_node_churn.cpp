// Ablation: node availability churn and the resource monitor.
//
// The paper's resource monitor "queries each known node every five
// minutes" and feeds "the currently available resources P" to the GA,
// which "is able to absorb system changes such as … changes in the number
// of hosts or processors available in the local domain".  This bench
// subjects every resource to an exponential failure/repair process and
// sweeps (a) the failure intensity at the paper's 5-minute poll and
// (b) the poll period at a fixed intensity.

#include <cstdio>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

core::ExperimentResult run(double mtbf, double mttr, double poll) {
  core::ExperimentConfig config = core::experiment3();
  config.workload.count = 300;
  config.system.churn.enabled = true;
  config.system.churn.mtbf = mtbf;
  config.system.churn.mttr = mttr;
  config.system.churn.horizon = 900.0;
  config.system.monitor_poll_period = poll;
  return core::run_experiment(config);
}

void print_row(const char* label, const core::ExperimentResult& result) {
  const auto& total = result.report.total;
  const double met =
      total.tasks > 0 ? 100.0 * total.deadlines_met / total.tasks : 0.0;
  std::printf("  %-22s %9.1f %8.1f %8.1f %8.1f %10.0f\n", label,
              total.advance_time, total.utilisation * 100.0,
              total.balance * 100.0, met, result.finished_at);
}

}  // namespace

int main() {
  std::printf("node-churn sweep (experiment 3, 300 requests, repair mean "
              "120 s):\n\n");
  std::printf("  %-22s %9s %8s %8s %8s %10s\n", "failure intensity",
              "eps(s)", "util%", "beta%", "met%", "horizon(s)");
  {
    core::ExperimentConfig config = core::experiment3();
    config.workload.count = 300;
    print_row("no churn", core::run_experiment(config));
  }
  print_row("MTBF 2400s (rare)", run(2400.0, 120.0, 300.0));
  print_row("MTBF 1200s", run(1200.0, 120.0, 300.0));
  print_row("MTBF 600s (heavy)", run(600.0, 120.0, 300.0));

  std::printf("\npoll-period sweep at MTBF 600 s:\n\n");
  std::printf("  %-22s %9s %8s %8s %8s %10s\n", "poll period", "eps(s)",
              "util%", "beta%", "met%", "horizon(s)");
  for (const double poll : {30.0, 100.0, 300.0, 600.0}) {
    char label[32];
    std::snprintf(label, sizeof label, "poll every %.0fs", poll);
    print_row(label, run(600.0, 120.0, poll));
  }
  std::printf("\nreading: the GA absorbs node departures (tasks re-pack "
              "onto survivors);\na failed node keeps running work until "
              "the monitor reports it, so faster\npolling only narrows the "
              "view the GA plans on (DESIGN.md §10).\n");
  return 0;
}
