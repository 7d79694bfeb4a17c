// Experiment harness for the case study (paper §4, Tables 2–3).
//
// Three experiment presets reproduce Table 2's design matrix:
//   experiment 1 — FIFO local scheduling, no agent mechanism;
//   experiment 2 — GA local scheduling, no agent mechanism;
//   experiment 3 — GA local scheduling + agent-based service discovery.
// `run_experiment` executes one configuration end-to-end in virtual time
// and returns the Table 3 metrics together with the auxiliary statistics
// used by the ablation benches.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "agents/agent_system.hpp"
#include "core/workload.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "sched/hash_placement.hpp"

namespace gridlb::core {

/// Which placement tier routes each submitted request onto a resource.
/// Orthogonal to the *local* scheduling policy (FIFO/GA), which decides
/// node allocation once a request has landed (DESIGN.md §15).
enum class PlacementFamily : std::uint8_t {
  /// The paper's architecture: requests enter at an agent and walk the
  /// hierarchy using advertised service information (experiments 1–3).
  kAgentDiscovery,
  /// Idealised omniscient dispatcher with zero-staleness, zero-cost
  /// visibility of every resource — the centralised strawman.
  kCentralOracle,
  /// CRUSH-style stateless hashed placement: the portal maps each
  /// request onto a resource with a weighted straw2 draw over the
  /// resource tree — no discovery messages at all (DESIGN.md §15).
  kHashPlacement,
};

/// Canonical CLI spelling: "agent" | "central" | "crush".
[[nodiscard]] std::string placement_family_name(PlacementFamily family);

/// Parses a canonical placement family name; anything else fails with a
/// message listing the valid values.
[[nodiscard]] PlacementFamily placement_family_from_name(
    const std::string& name);

struct ExperimentConfig {
  std::string name;
  /// The whole grid under test — resources, scheduling policy, discovery,
  /// network faults, agent churn.  Embedded directly: a knob added to
  /// agents::SystemConfig is immediately reachable from every experiment,
  /// bench, and CLI flag without a mirror field here.
  agents::SystemConfig system;
  WorkloadConfig workload;
  /// Placement family dispatched by run_experiment (DESIGN.md §15).
  PlacementFamily placement = PlacementFamily::kAgentDiscovery;
  /// Hash placement only: the straw map's seed and backlog-discount τ.
  /// The portal's optimistic freetime snapshots use τ = 60 s here (a
  /// target carrying b seconds of routed backlog competes with weight
  /// w / (1 + b/τ)); 0 keeps the map purely hardware-weighted.
  sched::HashPlacement::Config hash_placement{.load_tau = 60.0};
  /// Open-loop campaign cutoff: > 0 runs exactly the events with time <
  /// `duration` and then stops, completed or not — the sustained-rate
  /// regime whose success criteria are the steady-state latency
  /// percentiles and the shed rate instead of batch completion.  Workload
  /// entries at or after the cutoff are never submitted.  0 (the default)
  /// keeps the paper's closed loop: run until every submitted task
  /// completed or was dropped.
  SimTime duration = 0.0;
  /// Abort (with an assertion) if the grid has not drained by this time.
  SimTime horizon_limit = 48.0 * 3600.0;
  /// Observability: tracing/metrics instruments and their output files.
  /// Disabled by default; enabling it never changes experiment results
  /// (see DESIGN.md §9).
  obs::ObsConfig obs;
};

/// Table 2 presets.
[[nodiscard]] ExperimentConfig experiment1();
[[nodiscard]] ExperimentConfig experiment2();
[[nodiscard]] ExperimentConfig experiment3();

struct ExperimentResult {
  std::string name;
  metrics::Report report;              ///< ε / υ / β, per resource + total
  std::vector<sched::CompletionRecord> completions;  ///< full trace
  std::vector<agents::AgentStats> agent_stats;  ///< per agent, S1.. order
  // Aggregates.
  std::uint64_t requests_submitted = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_dropped = 0;     ///< strict-mode discovery failures
  /// Submitted but neither completed nor dropped when the run stopped —
  /// the standing backlog at an open-loop cutoff (always 0 closed-loop).
  std::uint64_t tasks_unfinished = 0;
  /// Offered load not completed inside the window:
  /// (submitted − completed) / submitted.  Closed-loop this equals the
  /// strict drop rate; open-loop it also counts the standing backlog.
  double shed_rate = 0.0;
  /// Steady-state sojourn time (completion − submission) percentiles over
  /// every completed task, nearest-rank; 0 when nothing completed.
  double latency_p50 = 0.0;
  double latency_p90 = 0.0;
  double latency_p99 = 0.0;
  /// Queued tasks re-homed to an idler neighbour (DESIGN.md §16).
  std::uint64_t migrations = 0;
  double mean_hops = 0.0;              ///< forwards per executed request
  std::uint64_t network_messages = 0;
  std::uint64_t network_bytes = 0;
  /// Prediction traffic (DESIGN.md §11): `cache.misses` is the grid's
  /// prediction-table entries (one engine evaluation each) and
  /// `cache.hits` every table read — the schedulers' `table_reads` plus
  /// the agents' eq. 10 / occupancy reads and the portal-side reads of the
  /// central and hashed placements.
  pace::CacheStats cache;
  std::uint64_t table_reads = 0;
  std::uint64_t ga_decodes = 0;
  std::uint64_t fifo_subsets = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t events_swept = 0;      ///< cancelled entries lazily discarded
  SimTime finished_at = 0.0;           ///< virtual time of the last event
  // Observability (zero unless config.obs enabled tracing).
  std::uint64_t trace_events = 0;      ///< events captured in the rings
  std::uint64_t trace_dropped = 0;     ///< events lost to ring wrap
  // Fault handling (all zero when faults and fault tolerance are off).
  std::uint64_t messages_dropped = 0;  ///< by the network fault plan
  /// Messages that arrived at a crashed agent's endpoint and were lost
  /// with it (agent churn; not part of the fault plan).
  std::uint64_t messages_lost_outage = 0;
  std::uint64_t message_retries = 0;   ///< retransmissions, all links
  std::uint64_t sends_expired = 0;     ///< retry budgets exhausted
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t agent_crashes = 0;
  std::uint64_t agent_restarts = 0;
  std::uint64_t tasks_resubmitted = 0; ///< stranded tasks re-discovered
  // Stateless placement (zero except under kHashPlacement).
  std::uint64_t placement_decisions = 0;  ///< straw draws the portal made
};

/// Runs one experiment to completion (all submitted tasks executed or
/// dropped, or the `duration` cutoff) and gathers every statistic.  There
/// is one run loop: the same engine, agent system, portal, workload
/// schedule, drive and result assembly serve every family.
/// `config.placement` decides only where each workload entry is
/// submitted:
///   kAgentDiscovery — the portal sends it to the workload's nominated
///       entry agent, which walks the paper's agent hierarchy;
///       byte-for-byte the historical behaviour;
///   kHashPlacement  — the portal sends it to the agent the stateless
///       straw map of DESIGN.md §15 picks (zero discovery traffic) over
///       the usual reliable link, so loss, churn and fault tolerance
///       apply unchanged;
///   kCentralOracle  — an omniscient dispatcher picks the globally best
///       eq. 10 estimate over every resource's live freetime (zero
///       staleness, zero message cost) and submits straight to that
///       resource's scheduler.  This is the centralised architecture the
///       paper argues against; comparing it with experiment 3 quantifies
///       what neighbour-only discovery gives up for its
///       decentralisation.  It ignores the fault plan, fault tolerance
///       and agent churn.
/// Both non-agent families run with discovery and advertisement pulls
/// off.  Local scheduling always uses `config.system.policy`.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// Runs independent configs concurrently and returns their results in
/// input order, each identical to run_experiment(config).  Every run stays
/// single-threaded; min(hardware threads, configs.size()) std::jthreads
/// take the configs in turn.  An observed config installs its own
/// obs::Session on the worker that runs it, so give each one its own
/// output paths.  The first failing config's exception (in input order)
/// is rethrown once every run has finished.
[[nodiscard]] std::vector<ExperimentResult> run_many(
    std::span<const ExperimentConfig> configs);

/// Formats results side by side in the layout of Table 3 (ε, υ, β columns
/// per experiment, one row per resource plus the grid total).
[[nodiscard]] std::string format_table3(
    const std::vector<ExperimentResult>& results);

}  // namespace gridlb::core
