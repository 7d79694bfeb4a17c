// Grid campaign: the full 12-agent case-study hierarchy end to end.
//
// Builds the Fig. 7 grid (two SGI Origin2000s down to two SPARCstation2
// clusters), starts the agent hierarchy with service advertisement and
// discovery enabled, fires a randomised request campaign through the user
// portal, and prints the ε / υ / β report together with the discovery
// statistics.
//
// Run: ./build/examples/grid_campaign [request_count] [seed]

#include <cstdio>
#include <cstdlib>

#include "gridlb.hpp"

int main(int argc, char** argv) {
  using namespace gridlb;

  const int requests = argc > 1 ? std::atoi(argv[1]) : 240;
  const std::uint64_t seed = argc > 2
                                 ? static_cast<std::uint64_t>(
                                       std::strtoull(argv[2], nullptr, 10))
                                 : 2003;

  core::ExperimentConfig config = core::experiment3();
  config.name = "grid campaign";
  config.workload.count = requests;
  config.workload.seed = seed;

  std::printf("running %d requests through the 12-agent case-study grid…\n",
              requests);
  const core::ExperimentResult result = core::run_experiment(config);

  std::printf("\n%s\n", metrics::format_report(result.report).c_str());
  std::printf("completed %llu/%llu tasks by t=%.0fs (virtual)\n",
              static_cast<unsigned long long>(result.tasks_completed),
              static_cast<unsigned long long>(result.requests_submitted),
              result.finished_at);
  std::printf("discovery: %.2f mean hops, %llu messages (%llu bytes) on the "
              "wire\n",
              result.mean_hops,
              static_cast<unsigned long long>(result.network_messages),
              static_cast<unsigned long long>(result.network_bytes));
  std::printf("prediction table: %llu reads over %llu entries\n",
              static_cast<unsigned long long>(result.cache.hits),
              static_cast<unsigned long long>(result.cache.misses));

  std::printf("\nper-agent discovery behaviour:\n");
  std::printf("  agent   recv  local  match     up  fallback\n");
  for (std::size_t i = 0; i < result.agent_stats.size(); ++i) {
    const agents::AgentStats& stats = result.agent_stats[i];
    std::printf("  S%-5zu %6llu %6llu %6llu %6llu %9llu\n", i + 1,
                static_cast<unsigned long long>(stats.requests_received),
                static_cast<unsigned long long>(stats.dispatched_local),
                static_cast<unsigned long long>(stats.forwarded_match),
                static_cast<unsigned long long>(stats.forwarded_up),
                static_cast<unsigned long long>(stats.fallback_dispatches));
  }
  return 0;
}
