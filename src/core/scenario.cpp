#include "core/scenario.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sched/node_mask.hpp"

namespace gridlb::core {

std::string shape_name(HierarchyShape shape) {
  switch (shape) {
    case HierarchyShape::kFanout:
      return "fanout";
    case HierarchyShape::kRandom:
      return "random";
  }
  GRIDLB_REQUIRE(false, "unknown hierarchy shape");
}

HierarchyShape shape_from_name(const std::string& name) {
  if (name == "fanout") return HierarchyShape::kFanout;
  if (name == "random") return HierarchyShape::kRandom;
  GRIDLB_REQUIRE(false, "unknown hierarchy shape: " + name +
                            " (expected fanout or random)");
}

namespace {

void validate(const ScenarioSpec& spec) {
  GRIDLB_REQUIRE(spec.agent_count >= 1, "scenario needs at least one agent");
  GRIDLB_REQUIRE(spec.fanout >= 1, "fanout must be at least 1");
  GRIDLB_REQUIRE(spec.max_depth >= 0, "max depth cannot be negative");
  GRIDLB_REQUIRE(spec.nodes_per_resource >= 1 &&
                     spec.nodes_per_resource <= sched::kMaxNodesPerResource,
                 "nodes per resource must be in 1.." +
                     std::to_string(sched::kMaxNodesPerResource));
  GRIDLB_REQUIRE(spec.requests_per_agent >= 0,
                 "requests per agent cannot be negative");
  GRIDLB_REQUIRE(spec.arrival_interval >= 0.0,
                 "arrival interval cannot be negative (0 = auto)");
  GRIDLB_REQUIRE(spec.deadline_scale > 0.0,
                 "deadline scale must be positive");
}

/// Parent index per agent (index 0 is the head, parent −1).
std::vector<int> build_parents(const ScenarioSpec& spec) {
  std::vector<int> parents(static_cast<std::size_t>(spec.agent_count), -1);
  if (spec.shape == HierarchyShape::kFanout) {
    for (int i = 1; i < spec.agent_count; ++i) {
      parents[static_cast<std::size_t>(i)] = (i - 1) / spec.fanout;
    }
    return parents;
  }
  // Random tree: each new agent attaches below a uniformly random earlier
  // agent, restricted to parents above the depth cap when one is set.
  // Earlier agents always exist, so the tree is connected and the spec
  // list stays in topological (parent-first) order by construction.
  Rng rng(spec.tree_seed);
  std::vector<int> depth(static_cast<std::size_t>(spec.agent_count), 0);
  std::vector<int> eligible{0};  // indices whose children stay within cap
  for (int i = 1; i < spec.agent_count; ++i) {
    const int parent = eligible[static_cast<std::size_t>(
        rng.next_below(eligible.size()))];
    parents[static_cast<std::size_t>(i)] = parent;
    depth[static_cast<std::size_t>(i)] =
        depth[static_cast<std::size_t>(parent)] + 1;
    if (spec.max_depth == 0 ||
        depth[static_cast<std::size_t>(i)] < spec.max_depth) {
      eligible.push_back(i);
    }
  }
  return parents;
}

}  // namespace

std::vector<agents::ResourceSpec> scenario_resources(
    const ScenarioSpec& spec) {
  validate(spec);
  const std::vector<pace::HardwareType>& mix =
      spec.hardware_mix.empty() ? pace::all_hardware_types()
                                : spec.hardware_mix;
  const std::vector<int> parents = build_parents(spec);
  std::vector<agents::ResourceSpec> resources;
  resources.reserve(static_cast<std::size_t>(spec.agent_count));
  for (int i = 0; i < spec.agent_count; ++i) {
    agents::ResourceSpec resource;
    // Appended, as in obs/exporters.cpp's resource_label (g++ 12 -Wrestrict).
    resource.name = "S";
    resource.name += std::to_string(i + 1);
    resource.hardware = mix[static_cast<std::size_t>(i) % mix.size()];
    resource.node_count = spec.nodes_per_resource;
    resource.parent = parents[static_cast<std::size_t>(i)];
    resources.push_back(std::move(resource));
  }
  return resources;
}

WorkloadConfig scenario_workload(const ScenarioSpec& spec) {
  validate(spec);
  WorkloadConfig workload;
  workload.count = spec.agent_count * spec.requests_per_agent;
  // 0 = auto: keep the *per-agent* arrival rate constant as the grid grows
  // (12 s between submissions on the 12-agent Fig. 7 grid), so a 10k-agent
  // campaign offers each resource the same load as the paper's case study
  // instead of drowning the portal.
  workload.interval = spec.arrival_interval > 0.0
                          ? spec.arrival_interval
                          : 12.0 / static_cast<double>(spec.agent_count);
  workload.seed = spec.workload_seed;
  workload.deadline_scale = spec.deadline_scale;
  return workload;
}

ExperimentConfig scenario_experiment(const ScenarioSpec& spec) {
  ExperimentConfig config;
  config.system.resources = scenario_resources(spec);
  config.workload = scenario_workload(spec);
  std::ostringstream name;
  name << "scenario (" << spec.agent_count << " agents, "
       << shape_name(spec.shape);
  if (spec.shape == HierarchyShape::kFanout) name << ' ' << spec.fanout;
  name << ", " << config.workload.count << " requests)";
  config.name = name.str();
  return config;
}

}  // namespace gridlb::core
