// Ablation: advertisement scope — own-service (the case study's setup)
// vs transitive relaying of capability-table entries.
//
// With own-service advertisements an agent only ever *matches* its direct
// neighbours; anything further needs escalation hop by hop, and the head
// of the hierarchy can dead-end into best-effort fallback.  Transitive
// relaying (split-horizon) gives every agent a routed view of remote
// resources at the price of larger advertisement exchanges.  This bench
// quantifies the trade on the case-study grid.

#include <cstdio>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

void run(const char* label, agents::AdvertisementScope scope,
         double pull_period) {
  core::ExperimentConfig config = core::experiment3();
  config.workload.count = 300;
  config.system.scope = scope;
  config.system.pull_period = pull_period;
  const auto result = core::run_experiment(config);

  std::uint64_t escalations = 0;
  std::uint64_t fallbacks = 0;
  for (const auto& stats : result.agent_stats) {
    escalations += stats.forwarded_up;
    fallbacks += stats.fallback_dispatches;
  }
  std::printf("  %-24s %8.1f %7.1f %7.1f %6.2f %7llu %9llu %9llu\n", label,
              result.report.total.advance_time,
              result.report.total.utilisation * 100.0,
              result.report.total.balance * 100.0, result.mean_hops,
              static_cast<unsigned long long>(escalations),
              static_cast<unsigned long long>(fallbacks),
              static_cast<unsigned long long>(result.network_messages));
}

}  // namespace

int main() {
  std::printf("advertisement scope ablation (experiment 3 workload, 300 "
              "requests):\n\n");
  std::printf("  %-24s %8s %7s %7s %6s %7s %9s %9s\n", "scope", "eps(s)",
              "util%", "beta%", "hops", "escal.", "fallbacks", "messages");
  for (const double period : {10.0, 30.0}) {
    char own[40];
    char transitive[40];
    std::snprintf(own, sizeof own, "own-service, pull %.0fs", period);
    std::snprintf(transitive, sizeof transitive,
                  "transitive, pull %.0fs", period);
    run(own, agents::AdvertisementScope::kOwnService, period);
    run(transitive, agents::AdvertisementScope::kTransitive, period);
  }
  std::printf("\nreading: transitive relaying trades advertisement volume "
              "for discovery\nreach — fewer blind escalations and fewer "
              "head-of-hierarchy fallbacks for\nthe same workload.\n");
  return 0;
}
