// Ablation: stateless hashed placement vs the agent hierarchy
// (DESIGN.md §15).
//
// The hierarchy buys balanced placement with advertisement and discovery
// traffic: pulls every period, service documents back, and O(depth)
// forwards per request, all computed from stale snapshots.  The CRUSH-
// style straw map spends none of that — placement is a hash — but routes
// on static hardware weights plus the portal's own optimistic backlog
// bookkeeping.  This bench quantifies the trade on generated fanout-3
// grids from 3 agents up to 10k: the Table 3 metrics (ε / υ / β) and the
// message economics side by side per family, then the straw map's
// bounded-remap contract under resource churn.
//
// Flags:
//   --max-agents N   largest sweep point (default 1536; pass 10000 for
//                    the full sweep — the biggest grids take minutes)
//   --csv            emit the sweep as CSV (for the CI artifact)
//   --requests-per-agent N   workload scale (default 10)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "gridlb.hpp"
#include "sched/hash_placement.hpp"

namespace {

using namespace gridlb;

struct FamilyRow {
  core::ExperimentResult result;
  double discovery_msgs = 0.0;  ///< pulls + advertisements + forwards
};

core::ExperimentConfig family_config(const core::ScenarioSpec& spec,
                                     core::PlacementFamily family) {
  core::ExperimentConfig config = core::scenario_experiment(spec);
  config.placement = family;
  return config;
}

FamilyRow family_row(core::ExperimentResult result) {
  FamilyRow row{std::move(result), 0.0};
  for (const auto& stats : row.result.agent_stats) {
    row.discovery_msgs += static_cast<double>(
        stats.pulls_sent + stats.advertisements_received +
        stats.forwarded_match + stats.forwarded_up);
  }
  return row;
}

void print_row(int agents, const char* family, const FamilyRow& row,
               bool csv) {
  const auto& total = row.result.report.total;
  const double requests =
      static_cast<double>(row.result.requests_submitted);
  const double msgs_per_req =
      static_cast<double>(row.result.network_messages) / requests;
  const double discovery_per_req = row.discovery_msgs / requests;
  if (csv) {
    std::printf("%d,%s,%llu,%.3f,%.4f,%.4f,%.2f,%.2f,%.3f\n", agents, family,
                static_cast<unsigned long long>(row.result.requests_submitted),
                total.advance_time, total.utilisation, total.balance,
                msgs_per_req, discovery_per_req, row.result.mean_hops);
  } else {
    std::printf("  %6d %-7s %8llu %8.1f %6.1f %6.1f %9.2f %9.2f %6.2f\n",
                agents, family,
                static_cast<unsigned long long>(row.result.requests_submitted),
                total.advance_time, total.utilisation * 100.0,
                total.balance * 100.0, msgs_per_req, discovery_per_req,
                row.result.mean_hops);
  }
}

/// Bounded remap under churn: build the straw map over the generated
/// resource tree, knock one resource out, and compare the fraction of
/// keys that moved against the victim's weight share — straw2 promises
/// they match (± binomial noise) and that no key moves between survivors.
void remap_section(int agents) {
  core::ScenarioSpec spec;
  spec.agent_count = agents;
  const std::vector<agents::ResourceSpec> resources =
      core::scenario_resources(spec);
  std::vector<sched::PlacementTarget> targets;
  for (std::size_t i = 0; i < resources.size(); ++i) {
    targets.push_back(sched::PlacementTarget{
        AgentId(i + 1),
        sched::HashPlacement::hardware_weight(
            pace::ResourceModel::of(resources[i].hardware),
            resources[i].node_count)});
  }
  sched::HashPlacement placement(sched::HashPlacement::Config{}, targets);
  const std::uint64_t keys = 100000;
  std::vector<std::size_t> before(keys);
  for (std::uint64_t key = 0; key < keys; ++key) {
    before[key] = placement.place(key).index;
  }

  std::printf("\nbounded remap under churn (%d-agent grid, %llu keys):\n\n",
              agents, static_cast<unsigned long long>(keys));
  std::printf("  %-10s %-16s %8s %8s %10s\n", "victim", "hardware",
              "w-share%", "moved%", "cross-moves");
  // Knock out the first resource of each hardware class: the heaviest and
  // lightest weights in the mix bracket the contract.
  std::vector<std::size_t> victims;
  for (std::size_t i = 0; i < resources.size() && victims.size() < 5; ++i) {
    bool seen = false;
    for (const std::size_t v : victims) {
      seen = seen || resources[v].hardware == resources[i].hardware;
    }
    if (!seen) victims.push_back(i);
  }
  for (const std::size_t victim : victims) {
    placement.set_available(victim, false);
    std::uint64_t moved = 0;
    std::uint64_t cross = 0;
    for (std::uint64_t key = 0; key < keys; ++key) {
      const std::size_t after = placement.place(key).index;
      if (after != before[key]) {
        ++moved;
        if (before[key] != victim) ++cross;  // contract violation if > 0
      }
    }
    placement.set_available(victim, true);
    const double share =
        targets[victim].weight / placement.total_weight() * 100.0;
    const std::string hardware(pace::hardware_name(resources[victim].hardware));
    std::printf("  %-10s %-16s %8.2f %8.2f %10llu\n",
                resources[victim].name.c_str(), hardware.c_str(), share,
                100.0 * static_cast<double>(moved) / static_cast<double>(keys),
                static_cast<unsigned long long>(cross));
  }
  std::printf("\n  (moved%% tracks the victim's weight share and cross-moves "
              "stay 0: removing a\n   resource disturbs only its own keys — "
              "the hierarchy instead re-discovers\n   every request routed "
              "near the failure.)\n");
}

/// Degradation check: the hashed family under message loss and agent
/// churn still completes everything — placements ride the reliable link.
int churn_campaign(int agents) {
  core::ScenarioSpec spec;
  spec.agent_count = agents;
  spec.requests_per_agent = 10;
  core::ExperimentConfig config = core::scenario_experiment(spec);
  config.placement = core::PlacementFamily::kHashPlacement;
  config.system.fault.drop_prob = 0.05;
  config.system.fault.jitter_max = 0.2;
  config.system.fault_tolerance.enabled = true;
  config.system.agent_churn.enabled = true;
  config.system.agent_churn.mtbf = 1800.0;
  config.system.agent_churn.mttr = 20.0;
  config.system.agent_churn.horizon = 300.0;
  const core::ExperimentResult result = core::run_experiment(config);
  std::printf("\ncrush under 5%% loss + agent churn (%d agents): "
              "%llu/%llu completed, %llu placements, %llu retries, "
              "%llu crashes, %llu resubmitted\n",
              agents,
              static_cast<unsigned long long>(result.tasks_completed),
              static_cast<unsigned long long>(result.requests_submitted),
              static_cast<unsigned long long>(result.placement_decisions),
              static_cast<unsigned long long>(result.message_retries),
              static_cast<unsigned long long>(result.agent_crashes),
              static_cast<unsigned long long>(result.tasks_resubmitted));
  if (result.tasks_completed < result.requests_submitted) {
    std::fprintf(stderr, "FAIL: tasks lost under churn\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int max_agents = 1536;
  int requests_per_agent = 10;
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-agents") == 0 && i + 1 < argc) {
      max_agents = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests-per-agent") == 0 &&
               i + 1 < argc) {
      requests_per_agent = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--max-agents N] [--requests-per-agent N] "
                   "[--csv]\n",
                   argv[0]);
      return 2;
    }
  }

  if (csv) {
    std::printf("agents,family,requests,eps_s,util,beta,msgs_per_req,"
                "discovery_msgs_per_req,mean_hops\n");
  } else {
    std::printf("placement families on generated fanout-3 grids "
                "(%d requests/agent):\n\n",
                requests_per_agent);
    std::printf("  %6s %-7s %8s %8s %6s %6s %9s %9s %6s\n", "agents",
                "family", "requests", "eps(s)", "util%", "beta%", "msgs/req",
                "disc/req", "hops");
  }
  // Every sweep point is an independent run: run them all concurrently,
  // then print in sweep order.
  std::vector<int> sizes;
  std::vector<core::ExperimentConfig> configs;
  for (const int agents : {3, 12, 48, 192, 768, 1536, 3072, 6144, 10000}) {
    if (agents > max_agents) break;
    core::ScenarioSpec spec;
    spec.agent_count = agents;
    spec.requests_per_agent = requests_per_agent;
    spec.arrival_interval = 0.0;  // auto: per-agent rate held constant
    sizes.push_back(agents);
    configs.push_back(
        family_config(spec, core::PlacementFamily::kAgentDiscovery));
    configs.push_back(
        family_config(spec, core::PlacementFamily::kHashPlacement));
  }
  std::vector<core::ExperimentResult> results = core::run_many(configs);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    print_row(sizes[i], "agent", family_row(std::move(results[2 * i])), csv);
    print_row(sizes[i], "crush", family_row(std::move(results[2 * i + 1])),
              csv);
  }
  if (csv) return 0;

  std::printf("\nreading: the crush rows pay a fixed 2 messages per request "
              "(submit + result)\nand zero discovery traffic at every scale; "
              "the hierarchy's per-request message\nbill grows with depth "
              "and pull chatter.  The hierarchy keeps an edge on beta\n— "
              "stale-but-real load signals beat static weights — which is "
              "the price of\nstatelessness the straw map's backlog discount "
              "only partly recovers.\n");

  remap_section(192);
  return churn_campaign(192);
}
