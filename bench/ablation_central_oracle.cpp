// Ablation: decentralised discovery vs an omniscient central dispatcher.
//
// The paper's architectural argument is that neighbour-only advertisement
// and discovery scale because "the system has no central structure which
// might act as a potential bottleneck" — accepting that decisions are
// made on stale, partial information.  The idealised upper bound is a
// central dispatcher with a live, global view and free coordination.
// This bench measures the gap on the case-study workload, plus what each
// architecture pays in messages.

#include <cstdio>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

void print_row(const char* label, const core::ExperimentResult& result) {
  const auto& total = result.report.total;
  std::printf("  %-28s %8.1f %7.1f %7.1f %9llu\n", label,
              total.advance_time, total.utilisation * 100.0,
              total.balance * 100.0,
              static_cast<unsigned long long>(result.network_messages));
}

}  // namespace

int main() {
  std::printf("central oracle vs decentralised discovery (600 requests):\n\n");
  std::printf("  %-28s %8s %7s %7s %9s\n", "architecture", "eps(s)", "util%",
              "beta%", "messages");

  {
    core::ExperimentConfig config = core::experiment2();
    config.name = "no balancing (exp 2)";
    print_row("GA only, no balancing", core::run_experiment(config));
  }
  {
    core::ExperimentConfig config = core::experiment3();
    print_row("agents (exp 3, 10s pulls)", core::run_experiment(config));
  }
  {
    core::ExperimentConfig config = core::experiment3();
    config.system.scope = agents::AdvertisementScope::kTransitive;
    print_row("agents, transitive scope", core::run_experiment(config));
  }
  {
    core::ExperimentConfig config = core::experiment3();
    config.name = "central oracle";
    config.placement = core::PlacementFamily::kCentralOracle;
    print_row("central omniscient oracle", core::run_experiment(config));
  }
  std::printf("\nreading: the oracle bounds achievable quality; the "
              "hierarchy recovers most\nof the gap between no balancing and "
              "the oracle while exchanging only\nneighbour-local messages — "
              "the paper's scalability argument, quantified.\n");
  return 0;
}
