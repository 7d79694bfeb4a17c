// Ablation: discovery scalability (paper §3.1).
//
// "Most requests are processed in a local domain and need not to be
// submitted to a wider area.  Both advertisement and discovery requests
// are processed between neighbouring agents and the system has no central
// structure which might act as a potential bottleneck.  While further
// work is necessary to test the scalability of the system …" — this bench
// is that further work, in simulation: generated fanout-3 grids of 3..192
// agents (scenario subsystem, DESIGN.md §12; case-study hardware mix)
// under a proportional workload (25 requests per resource), reporting
// hops per request, messages per agent, and the share of requests
// resolved without leaving the entry agent.

#include <cstdio>

#include "gridlb.hpp"

int main() {
  using namespace gridlb;
  std::printf("discovery scalability sweep (workload scales with grid "
              "size):\n\n");
  std::printf("  %6s %9s %8s %10s %11s %9s\n", "agents", "requests", "hops",
              "msgs/agent", "local-only%", "beta%");
  for (const int agent_count : {3, 6, 12, 24, 48, 96, 192}) {
    core::ScenarioSpec spec;
    spec.agent_count = agent_count;
    spec.fanout = 3;
    spec.requests_per_agent = 25;  // constant load per resource
    const auto result = core::run_experiment(core::scenario_experiment(spec));

    std::uint64_t zero_hop = 0;
    std::uint64_t dispatched = 0;
    for (const auto& stats : result.agent_stats) {
      zero_hop += stats.zero_hop_dispatches;
      dispatched += stats.dispatched_local;
    }
    const double local_share =
        dispatched > 0 ? 100.0 * static_cast<double>(zero_hop) /
                             static_cast<double>(dispatched)
                       : 0.0;
    std::printf("  %6d %9llu %8.2f %10.1f %11.1f %9.1f\n", agent_count,
                static_cast<unsigned long long>(result.requests_submitted),
                result.mean_hops,
                static_cast<double>(result.network_messages) /
                    static_cast<double>(agent_count),
                local_share, result.report.total.balance * 100.0);
  }
  std::printf("\nreading: hops per request grow slowly (hierarchy depth is "
              "logarithmic) and\nper-agent message load stays bounded — no "
              "central bottleneck emerges as the\ngrid grows.\n");
  return 0;
}
