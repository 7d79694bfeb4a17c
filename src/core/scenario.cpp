#include "core/scenario.hpp"

#include <sstream>

#include "common/assert.hpp"

namespace gridlb::core {

namespace {

void validate(const ScenarioSpec& spec) {
  GRIDLB_REQUIRE(spec.agent_count >= 1, "scenario needs at least one agent");
  GRIDLB_REQUIRE(spec.fanout >= 1, "fanout must be at least 1");
  GRIDLB_REQUIRE(spec.requests_per_agent >= 0,
                 "requests per agent cannot be negative");
  GRIDLB_REQUIRE(spec.arrival_interval >= 0.0,
                 "arrival interval cannot be negative (0 = auto)");
  GRIDLB_REQUIRE(spec.deadline_scale > 0.0,
                 "deadline scale must be positive");
}

}  // namespace

std::vector<agents::ResourceSpec> scenario_resources(
    const ScenarioSpec& spec) {
  validate(spec);
  const std::vector<pace::HardwareType>& platforms =
      pace::all_hardware_types();
  std::vector<agents::ResourceSpec> resources;
  resources.reserve(static_cast<std::size_t>(spec.agent_count));
  for (int i = 0; i < spec.agent_count; ++i) {
    agents::ResourceSpec resource;
    // Appended, as in obs/exporters.cpp's resource_label (g++ 12 -Wrestrict).
    resource.name = "S";
    resource.name += std::to_string(i + 1);
    resource.hardware =
        platforms[static_cast<std::size_t>(i) % platforms.size()];
    // Balanced tree: index 0 is the head (parent −1).
    resource.parent = i == 0 ? -1 : (i - 1) / spec.fanout;
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
  name << "scenario (" << spec.agent_count << " agents, fanout "
       << spec.fanout << ", " << config.workload.count << " requests)";
  config.name = name.str();
  return config;
}

}  // namespace gridlb::core
