// Parameterised grid scenarios (DESIGN.md §12).
//
// The paper's evaluation is hard-wired to the twelve-agent Fig. 7 grid
// and leaves scalability as future work ("further work is necessary to
// test the scalability of the system", §3.1).  A ScenarioSpec describes a
// whole family of grids instead: how many agents, how many children each
// agent has in the balanced hierarchy, and how the workload scales with
// the grid (requests per resource, arrival rate, deadline tightness).
// Every resource has `agents::ResourceSpec`'s 16 nodes, and the resources
// cycle through the five case-study platforms, fastest first.  The
// generator turns a spec into the concrete `agents::ResourceSpec` tree +
// `WorkloadConfig` every harness entry point already consumes, so the same
// code that reproduces Table 3 runs any grid you can describe.
#pragma once

#include <cstdint>
#include <vector>

#include "agents/agent_system.hpp"
#include "core/experiment.hpp"
#include "core/workload.hpp"

namespace gridlb::core {

struct ScenarioSpec {
  // --- grid ---
  int agent_count = 12;
  /// Children per interior agent: agent i's parent is (i − 1) / fanout, so
  /// depth grows logarithmically with the grid.
  int fanout = 3;
  // --- workload scaling ---
  int requests_per_agent = 25;    ///< total requests = agents × this
  /// Seconds between submissions; 0 = auto (12 s ÷ agent_count, i.e. the
  /// Fig. 7 per-agent rate held constant as the grid scales).
  double arrival_interval = 1.0;
  double deadline_scale = 1.0;    ///< see WorkloadConfig::deadline_scale
  std::uint64_t workload_seed = 2003;
};

/// Generates the resource tree for `spec`: agents named "S1".."SN" in
/// topological (parent-first) order, hardware cycled through
/// pace::all_hardware_types() (S1 gets the fastest platform, S2 the next,
/// …).  Deterministic — the same spec always yields the same tree.
[[nodiscard]] std::vector<agents::ResourceSpec> scenario_resources(
    const ScenarioSpec& spec);

/// The matching workload: `agent_count × requests_per_agent` requests at
/// `arrival_interval` spacing (load per resource stays constant as the
/// grid grows).
[[nodiscard]] WorkloadConfig scenario_workload(const ScenarioSpec& spec);

/// A ready-to-run experiment over the generated grid, configured like the
/// paper's experiment 3 (GA local scheduling + agent discovery).
[[nodiscard]] ExperimentConfig scenario_experiment(const ScenarioSpec& spec);

}  // namespace gridlb::core
