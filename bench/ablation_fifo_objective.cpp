// Ablation: the two readings of the paper's FIFO baseline.
//
// The paper describes the FIFO baseline as trying all 2^16−1 allocations
// and fixing "the current best solution" per task, without stating the
// objective.  Table 3's experiment-1 signature (overloaded resources at
// ~44% utilisation with ~−1000 s delays) is only consistent with a
// *min-execution* reading — tasks queue for their execution-optimal
// allocation while other nodes idle.  This bench runs experiment 1 under
// both readings so the choice is visible and quantified (see DESIGN.md).

#include <cstdio>

#include "gridlb.hpp"

int main() {
  using namespace gridlb;
  std::printf("FIFO objective ablation (experiment 1, 600 requests):\n\n");
  std::printf("  %-16s %9s %8s %8s %10s\n", "objective", "eps(s)", "util%",
              "beta%", "horizon(s)");
  for (const auto objective : {sched::FifoObjective::kMinExecution,
                               sched::FifoObjective::kMinCompletion}) {
    core::ExperimentConfig config = core::experiment1();
    config.system.fifo_objective = objective;
    const auto result = core::run_experiment(config);
    std::printf("  %-16s %9.1f %8.1f %8.1f %10.0f\n",
                objective == sched::FifoObjective::kMinExecution
                    ? "min-execution"
                    : "min-completion",
                result.report.total.advance_time,
                result.report.total.utilisation * 100.0,
                result.report.total.balance * 100.0, result.finished_at);
  }
  std::printf("\npaper experiment 1 totals: eps −475 s, util 26%%, beta "
              "31%%.\nmin-execution reproduces the overload signature; "
              "min-completion is a much\nstronger baseline and would erase "
              "most of the paper's exp1→exp2 gap.\n");
  return 0;
}
