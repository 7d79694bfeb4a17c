// Ablation: service-advertisement strategy (paper §3.1).
//
// "An agent can advertise service information to both upper and lower
// agents.  Different strategies can be used to control these processes,
// which has an impact on the system efficiency.  Service information can
// be pushed to or pulled from other agents, a process that is triggered by
// system events or through periodic updates."
//
// The case study pulls every 10 s.  This bench sweeps the pull period and
// compares against event-triggered push, reporting grid metrics and
// message cost — the staleness/traffic trade-off the paper alludes to.

#include <cstdio>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

core::ExperimentResult run_with(double pull_period, bool push_on_dispatch) {
  core::ExperimentConfig config = core::experiment3();
  config.workload.count = 300;
  config.system.pull_period = pull_period;
  config.system.push_on_dispatch = push_on_dispatch;
  return core::run_experiment(config);
}

void print_row(const char* label, const core::ExperimentResult& result) {
  std::printf("  %-18s %8.1f %8.1f %8.1f %6.2f %9llu\n", label,
              result.report.total.advance_time,
              result.report.total.utilisation * 100.0,
              result.report.total.balance * 100.0, result.mean_hops,
              static_cast<unsigned long long>(result.network_messages));
}

}  // namespace

int main() {
  std::printf("advertisement strategy sweep (experiment 3 workload, 300 "
              "requests):\n\n");
  std::printf("  %-18s %8s %8s %8s %6s %9s\n", "strategy", "eps(s)", "util%",
              "beta%", "hops", "messages");

  for (const double period : {2.0, 5.0, 10.0, 30.0, 60.0, 120.0}) {
    char label[32];
    std::snprintf(label, sizeof label, "pull every %.0fs", period);
    print_row(label, run_with(period, false));
  }
  print_row("push on dispatch", run_with(0.0, true));
  print_row("pull 10s + push", run_with(10.0, true));
  print_row("no advertisement", run_with(0.0, false));

  std::printf("\nreading: short pull periods keep capability tables fresh "
              "(better balance)\nat the price of message traffic; "
              "event-triggered push reaches similar\nfreshness with load-"
              "dependent cost.  With no advertisement at all every\nrequest "
              "must escalate blindly to the hierarchy head.\n");
  return 0;
}
