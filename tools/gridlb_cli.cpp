// gridlb — command-line driver for the grid load-balancing simulator.
//
//   gridlb table1
//       Print the PACE predictions of Table 1.
//   gridlb predict --app sweep3d [--hardware SunUltra5]
//   gridlb predict --model file.pace [--hardware …]
//       Evaluate an application model on a platform (1..16 nodes).
//   gridlb experiment [--id 1|2|3|all] [--requests N] [--seed S] [--csv]
//       Run the case-study experiments and print Table 3 (or CSV).
//   gridlb campaign [--requests N] [--policy ga|fifo] [--agents on|off]
//                   [--placement agent|central|crush] [--seed S]
//                   [--pull-period P] [--prediction-error E]
//                   [--eval-threads N] [--churn-mtbf M --churn-mttr R]
//                   [--sim-shards N] [--csv] [--trace S1]
//       Run a custom campaign on the Fig. 7 grid; --trace renders one
//       resource's executed Gantt chart.  A leading `--` flag with no
//       command runs a campaign, so `gridlb --grid-agents 192 …` works.
//
// Scenario grids (campaign command, DESIGN.md §12): --grid-agents
// replaces the Fig. 7 grid with a generated one — --grid-shape
// fanout|random, --grid-fanout, --grid-depth, --grid-seed, --grid-nodes
// describe the hierarchy; --requests-per-agent, --arrival-interval
// (0 = auto: hold the per-agent rate constant) and --deadline-scale scale
// the workload with it.  --sim-shards N partitions the event queue across
// N threads (0 = hardware concurrency; results are identical for any
// shard count, see DESIGN.md §13).  --timeline-out writes the
// per-resource utilisation timeline as CSV (--timeline-window buckets),
// and --require-complete exits non-zero unless every task completed.
//
// Placement families (experiment and campaign commands, DESIGN.md §15):
// --placement selects how requests are routed onto resources — agent
// (the paper's hierarchy, default), central (omniscient oracle; aliases
// central-oracle, oracle) or crush (stateless hashed straw map; alias
// hash).  Orthogonal to --policy, which stays the *local* scheduler.
//
// Traffic shaping (campaign command, DESIGN.md §17): --arrival selects
// the submission-timing process — uniform (default), poisson, onoff
// (--burst-on/--burst-off), diurnal (--diurnal-period,
// --diurnal-amplitude) or trace (--arrival-trace FILE replays a JSONL
// workload; --workload-out FILE exports one).  --duration T runs the
// open loop: stop at sim time T whether or not the batch drained, and
// judge the run by shed rate and latency percentiles (--max-shed-rate X
// exits non-zero above X).  --migration on re-homes queued tasks from
// overloaded agents to idle direct neighbours
// (--migration-overload/--migration-underload watermarks,
// --migration-batch cap).
//
// Fault injection (experiment and campaign commands): --drop-prob,
// --net-jitter, --agent-mtbf/--agent-mttr.  Any of these switches on the
// loss-tolerant agent protocol (retries, ACT expiry, resubmission).
//
// Observability (experiment and campaign commands):
//   --trace-out=FILE        Chrome trace-event JSON (open in Perfetto)
//   --events-out=FILE       flat JSONL event dump
//   --metrics-json=FILE     metrics-registry snapshot as JSON
//   --metrics-interval=SEC  continuous sampling cadence in sim-seconds
//   --series-out=FILE       sampled time series as JSONL (one row/line)
//   --series-csv=FILE       sampled time series as CSV
//   --progress              stderr heartbeat line per sample
// The sampled series + metrics JSON feed tools/campaign_report.py, which
// renders a single self-contained HTML health report (DESIGN.md §14).
//
// Everything runs in virtual time; identical flags give identical output,
// and enabling tracing never changes results (DESIGN.md §9).
//
// `gridlb --help` (or -h, after any command) prints the usage and exits 0.
// An unknown flag, a flag missing its value or an unknown command prints
// the error and the usage to stderr and exits 2; a run that fails exits 1.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.hpp"
#include "common/log.hpp"
#include "core/gridlb.hpp"
#include "core/scenario.hpp"
#include "metrics/time_series.hpp"
#include "pace/model_parser.hpp"
#include "report/csv.hpp"
#include "report/gantt.hpp"

namespace {

using namespace gridlb;

int cmd_table1() {
  pace::EvaluationEngine engine;
  const auto catalogue = pace::paper_catalogue();
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
  std::printf("%-10s %-10s", "app", "deadline");
  for (int k = 1; k <= 16; ++k) std::printf(" %4d", k);
  std::printf("\n");
  for (const auto& model : catalogue.all()) {
    const auto domain = model->deadline_domain();
    char bounds[32];
    std::snprintf(bounds, sizeof bounds, "[%.0f,%.0f]", domain.lo, domain.hi);
    std::printf("%-10s %-10s", model->name().c_str(), bounds);
    for (int k = 1; k <= 16; ++k) {
      std::printf(" %4.0f", engine.evaluate(*model, sgi, k));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_predict(const Flags& flags) {
  pace::ApplicationModelPtr model;
  if (flags.has("model")) {
    const std::string path = flags.get("model", "");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open model file: %s\n", path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    model = pace::parse_model(text.str());
  } else {
    const std::string app = flags.get("app", "sweep3d");
    const auto catalogue = pace::paper_catalogue();
    model = catalogue.find(app);
    if (model == nullptr) {
      std::fprintf(stderr, "unknown application: %s\n", app.c_str());
      return 1;
    }
  }
  const std::string hardware_name =
      flags.get("hardware", "SGIOrigin2000");
  const auto hardware = pace::hardware_from_name(hardware_name);
  if (!hardware) {
    std::fprintf(stderr, "unknown hardware type: %s\n",
                 hardware_name.c_str());
    return 1;
  }
  pace::EvaluationEngine engine;
  const auto resource = pace::ResourceModel::of(*hardware);
  std::printf("%s on %s (factor %.2f):\n", model->name().c_str(),
              hardware_name.c_str(), resource.factor);
  std::printf("  procs   runtime(s)\n");
  for (int k = 1; k <= model->max_procs(); ++k) {
    std::printf("  %5d   %10.2f\n", k, engine.evaluate(*model, resource, k));
  }
  return 0;
}

/// Fills config.obs from --trace-out / --events-out / --metrics-json and
/// the continuous-profiling flags (--metrics-interval / --series-out /
/// --series-csv / --progress).  Shared by the experiment and campaign
/// commands.
void apply_obs_flags(const Flags& flags, core::ExperimentConfig& config) {
  config.obs.trace_out = flags.get("trace-out", "");
  config.obs.events_out = flags.get("events-out", "");
  config.obs.metrics_json_out = flags.get("metrics-json", "");
  config.obs.metrics_interval = flags.get_double("metrics-interval", 0.0);
  GRIDLB_REQUIRE(config.obs.metrics_interval >= 0.0,
                 "--metrics-interval must be >= 0");
  config.obs.series_jsonl_out = flags.get("series-out", "");
  config.obs.series_csv_out = flags.get("series-csv", "");
  config.obs.progress = flags.get_bool("progress", false);
}

/// Fills the fault plan and agent churn from --drop-prob / --net-jitter /
/// --agent-mtbf / --agent-mttr.  Any injected fault switches the loss-
/// tolerant protocol on (running lossy without it would black-hole
/// tasks); all-defaults leaves the bit-for-bit lossless behaviour.
void apply_fault_flags(const Flags& flags, core::ExperimentConfig& config) {
  agents::SystemConfig& system = config.system;
  system.fault.drop_prob = flags.get_double("drop-prob", 0.0);
  system.fault.jitter_max = flags.get_double("net-jitter", 0.0);
  const double mtbf = flags.get_double("agent-mtbf", 0.0);
  if (mtbf > 0.0) {
    system.agent_churn.enabled = true;
    system.agent_churn.mtbf = mtbf;
    system.agent_churn.mttr = flags.get_double("agent-mttr", 30.0);
    system.agent_churn.horizon =
        config.workload.start +
        static_cast<double>(config.workload.count) * config.workload.interval;
  }
  if (system.fault.active() || system.agent_churn.enabled) {
    system.fault_tolerance.enabled = true;
  }
}

/// Fills the arrival process, open-loop duration and queue-migration knobs
/// (campaign command) and validates the workload here — the CLI boundary —
/// so a bad interval or missing trace file fails with the actionable
/// validate_workload message before any expensive setup.
void apply_traffic_flags(const Flags& flags, core::ExperimentConfig& config) {
  core::WorkloadConfig& workload = config.workload;
  if (flags.has("arrival")) {
    workload.arrival =
        core::arrival_process_from_name(flags.get("arrival", "uniform"));
  }
  workload.trace_path = flags.get("arrival-trace", workload.trace_path);
  if (!workload.trace_path.empty() && !flags.has("arrival")) {
    workload.arrival = core::ArrivalProcess::kTrace;
  }
  workload.burst_on = flags.get_double("burst-on", workload.burst_on);
  workload.burst_off = flags.get_double("burst-off", workload.burst_off);
  workload.diurnal_period =
      flags.get_double("diurnal-period", workload.diurnal_period);
  workload.diurnal_amplitude =
      flags.get_double("diurnal-amplitude", workload.diurnal_amplitude);
  config.duration = flags.get_double("duration", 0.0);
  GRIDLB_REQUIRE(config.duration >= 0.0,
                 "--duration cannot be negative (0 = closed loop: run until "
                 "the batch drains)");
  agents::MigrationConfig& migration = config.system.migration;
  migration.enabled = flags.get_bool("migration", false);
  migration.overload_threshold =
      flags.get_double("migration-overload", migration.overload_threshold);
  migration.underload_threshold =
      flags.get_double("migration-underload", migration.underload_threshold);
  migration.max_batch = flags.get_int("migration-batch", migration.max_batch);
  GRIDLB_REQUIRE(migration.max_batch >= 1,
                 "--migration-batch must be >= 1 (tasks re-homed per "
                 "qualifying advertisement)");
  core::validate_workload(workload);
}

/// Builds the generated grid described by the --grid-* / workload-scaling
/// flags (campaign command with --grid-agents).
core::ScenarioSpec scenario_spec_from_flags(const Flags& flags) {
  core::ScenarioSpec spec;
  spec.agent_count = flags.get_int("grid-agents", spec.agent_count);
  spec.shape = core::shape_from_name(
      flags.get("grid-shape", core::shape_name(spec.shape)));
  spec.fanout = flags.get_int("grid-fanout", spec.fanout);
  spec.max_depth = flags.get_int("grid-depth", spec.max_depth);
  spec.tree_seed = static_cast<std::uint64_t>(
      flags.get_int("grid-seed", static_cast<int>(spec.tree_seed)));
  spec.nodes_per_resource =
      flags.get_int("grid-nodes", spec.nodes_per_resource);
  spec.requests_per_agent =
      flags.get_int("requests-per-agent", spec.requests_per_agent);
  // Default 0 = auto: the CLI holds the per-agent arrival rate constant as
  // --grid-agents grows, so big campaigns fit the same horizon.
  spec.arrival_interval = flags.get_double("arrival-interval", 0.0);
  spec.deadline_scale =
      flags.get_double("deadline-scale", spec.deadline_scale);
  return spec;
}

core::ExperimentConfig campaign_config(const Flags& flags) {
  core::ExperimentConfig config;
  if (flags.has("grid-agents")) {
    config = core::scenario_experiment(scenario_spec_from_flags(flags));
    if (flags.has("requests")) {
      config.workload.count = flags.get_int("requests", config.workload.count);
    }
  } else {
    config = core::experiment3();
    config.name = "campaign";
    config.workload.count = flags.get_int("requests", 300);
    // Unlike the scenario path, the Fig. 7 grid has no auto rate: an
    // explicit interval applies directly and 0 is rejected (with the
    // which-flag-to-pass message) by the validation below.
    if (flags.has("arrival-interval")) {
      config.workload.interval =
          flags.get_double("arrival-interval", config.workload.interval);
    }
  }
  config.workload.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<int>(config.workload.seed)));
  const std::string policy = flags.get("policy", "ga");
  GRIDLB_REQUIRE(policy == "ga" || policy == "fifo",
                 "--policy must be ga or fifo");
  config.system.policy = policy == "ga" ? sched::SchedulerPolicy::kGa
                                        : sched::SchedulerPolicy::kFifo;
  config.placement = core::placement_family_from_name(
      flags.get("placement", core::placement_family_name(config.placement)));
  config.system.discovery_enabled = flags.get_bool("agents", true);
  config.system.ga.eval_threads = flags.get_int("eval-threads", 0);
  GRIDLB_REQUIRE(config.system.ga.eval_threads >= 0,
                 "--eval-threads must be >= 0 (0 = hardware concurrency)");
  config.system.sim_shards = flags.get_int("sim-shards", 1);
  GRIDLB_REQUIRE(config.system.sim_shards >= 0,
                 "--sim-shards must be >= 0 (0 = hardware concurrency)");
  config.system.pull_period = flags.get_double("pull-period", 10.0);
  config.system.prediction_error = flags.get_double("prediction-error", 0.0);
  const double mtbf = flags.get_double("churn-mtbf", 0.0);
  if (mtbf > 0.0) {
    config.system.churn.enabled = true;
    config.system.churn.mtbf = mtbf;
    config.system.churn.mttr = flags.get_double("churn-mttr", 120.0);
    config.system.churn.horizon =
        config.workload.start +
        static_cast<double>(config.workload.count) * config.workload.interval;
  }
  apply_traffic_flags(flags, config);
  apply_fault_flags(flags, config);
  apply_obs_flags(flags, config);
  return config;
}

int cmd_experiment(const Flags& flags) {
  const std::string id = flags.get("id", "all");
  std::vector<core::ExperimentConfig> configs;
  if (id == "1" || id == "all") configs.push_back(core::experiment1());
  if (id == "2" || id == "all") configs.push_back(core::experiment2());
  if (id == "3" || id == "all") configs.push_back(core::experiment3());
  if (configs.empty()) {
    std::fprintf(stderr, "--id must be 1, 2, 3 or all\n");
    return 1;
  }
  std::vector<core::ExperimentResult> results;
  if (configs.size() > 1 &&
      (flags.has("trace-out") || flags.has("events-out") ||
       flags.has("metrics-json") || flags.has("series-out") ||
       flags.has("series-csv"))) {
    log::warn("observability outputs with --id all: each experiment "
              "overwrites the file; the last one wins");
  }
  for (auto& config : configs) {
    config.workload.count = flags.get_int("requests", 600);
    config.workload.seed =
        static_cast<std::uint64_t>(flags.get_int("seed", 2003));
    config.system.ga.eval_threads = flags.get_int("eval-threads", 0);
    config.system.sim_shards = flags.get_int("sim-shards", 1);
    config.placement = core::placement_family_from_name(
        flags.get("placement", core::placement_family_name(config.placement)));
    apply_fault_flags(flags, config);
    apply_obs_flags(flags, config);
    log::info("running ", config.name, "…");
    results.push_back(core::run_experiment(config));
  }
  if (flags.get_bool("csv", false)) {
    std::cout << report::experiments_csv(results);
  } else {
    std::cout << core::format_table3(results);
  }
  return 0;
}

int cmd_campaign(const Flags& flags) {
  const core::ExperimentConfig config = campaign_config(flags);

  if (flags.has("workload-out")) {
    // Export the workload the run below will see, as a replayable JSONL
    // trace (--arrival-trace).  Generation is deterministic, so the file
    // matches the run bit-for-bit.
    const std::string path = flags.get("workload-out", "");
    const auto workload = core::generate_workload(
        config.workload, pace::paper_catalogue(),
        static_cast<int>(config.system.resources.size()));
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write workload JSONL: %s\n", path.c_str());
      return 1;
    }
    out << core::workload_to_jsonl(workload);
    log::info("wrote workload JSONL to ", path);
  }

  const core::ExperimentResult result = core::run_experiment(config);

  if (flags.has("trace")) {
    // Render one resource's executed Gantt chart.
    const std::string name = flags.get("trace", "S1");
    int resource_index = -1;
    for (std::size_t i = 0; i < config.system.resources.size(); ++i) {
      if (config.system.resources[i].name == name) {
        resource_index = static_cast<int>(i);
        break;
      }
    }
    if (resource_index < 0) {
      std::fprintf(stderr, "unknown resource: %s\n", name.c_str());
      return 1;
    }
    std::vector<sched::CompletionRecord> records;
    for (const auto& record : result.completions) {
      if (record.resource ==
          AgentId(static_cast<std::uint64_t>(resource_index) + 1)) {
        records.push_back(record);
      }
    }
    std::printf("%s — %zu executions\n", name.c_str(), records.size());
    std::cout << report::render_trace(
        records,
        config.system.resources[static_cast<std::size_t>(resource_index)]
            .node_count);
    return 0;
  }
  if (flags.has("timeline-out")) {
    std::vector<std::pair<std::string, int>> resources;
    for (const auto& spec : config.system.resources) {
      resources.emplace_back(spec.name, spec.node_count);
    }
    SimTime end = 0.0;
    for (const auto& record : result.completions) {
      end = std::max(end, record.end);
    }
    const metrics::Timeline timeline = metrics::build_timeline(
        result.completions, resources,
        flags.get_double("timeline-window", 60.0), 0.0, end);
    const std::string path = flags.get("timeline-out", "");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write timeline CSV: %s\n", path.c_str());
      return 1;
    }
    out << metrics::timeline_csv(timeline);
    log::info("wrote timeline CSV to ", path);
  }
  if (flags.get_bool("csv", false)) {
    std::cout << report::report_csv(result.report);
  } else {
    // Surface trace-ring drops next to the numbers they taint: a truncated
    // trace silently skews any analysis done on the exported files.
    std::vector<std::string> notes;
    if (result.trace_dropped > 0) {
      notes.push_back(
          "trace ring overflow: " + std::to_string(result.trace_dropped) +
          " of " + std::to_string(result.trace_events) +
          " events dropped; raise the ring capacity or shorten the run");
    }
    std::cout << metrics::format_report(result.report, notes);
    std::printf("\n%llu/%llu tasks completed by t=%.0fs; %.2f mean hops; "
                "%llu messages; cache hit rate %.1f%%\n",
                static_cast<unsigned long long>(result.tasks_completed),
                static_cast<unsigned long long>(result.requests_submitted),
                result.finished_at, result.mean_hops,
                static_cast<unsigned long long>(result.network_messages),
                result.cache.hit_rate() * 100.0);
    if (result.placement_decisions > 0) {
      std::printf("%llu requests hash-placed by the stateless straw map "
                  "(0 discovery messages)\n",
                  static_cast<unsigned long long>(result.placement_decisions));
    }
    if (config.duration > 0.0) {
      std::printf("open loop (%s arrivals, %.0fs window): shed rate %.2f%%; "
                  "latency p50/p90/p99 = %.1f/%.1f/%.1f s; %llu unfinished\n",
                  core::arrival_process_name(config.workload.arrival).c_str(),
                  config.duration, result.shed_rate * 100.0,
                  result.latency_p50, result.latency_p90, result.latency_p99,
                  static_cast<unsigned long long>(result.tasks_unfinished));
    }
    if (config.system.migration.enabled) {
      std::printf("%llu queued tasks migrated to idler neighbours\n",
                  static_cast<unsigned long long>(result.migrations));
    }
  }
  if (flags.has("max-shed-rate")) {
    const double limit = flags.get_double("max-shed-rate", 1.0);
    if (result.shed_rate > limit) {
      std::fprintf(stderr,
                   "FAIL: shed rate %.4f exceeds --max-shed-rate %.4f "
                   "(%llu of %llu tasks not completed)\n",
                   result.shed_rate, limit,
                   static_cast<unsigned long long>(result.requests_submitted -
                                                   result.tasks_completed),
                   static_cast<unsigned long long>(result.requests_submitted));
      return 1;
    }
  }
  if (flags.get_bool("require-complete", false) &&
      result.tasks_completed < result.requests_submitted) {
    std::fprintf(stderr, "FAIL: %llu of %llu tasks did not complete\n",
                 static_cast<unsigned long long>(result.requests_submitted -
                                                 result.tasks_completed),
                 static_cast<unsigned long long>(result.requests_submitted));
    return 1;
  }
  return 0;
}

Flags make_flags() {
  Flags flags;
  flags.declare("id", "1|2|3|all", "experiment(s) to run");
  flags.declare("requests", "N", "number of portal requests");
  flags.declare("seed", "S", "workload seed");
  flags.declare("policy", "ga|fifo", "local scheduling policy");
  flags.declare("eval-threads", "N",
                "GA evaluate-phase threads (0 = hardware concurrency)");
  flags.declare("sim-shards", "N",
                "engine shards (1 = classic, 0 = hardware concurrency)");
  flags.declare("placement", "agent|central|crush",
                "placement family routing requests onto resources");
  flags.declare("agents", "on|off", "agent-based discovery");
  flags.declare("pull-period", "sec", "advertisement pull period");
  flags.declare("prediction-error", "e", "actual = predicted × U[1−e,1+e]");
  flags.declare("churn-mtbf", "sec", "mean node up-time (0 = no churn)");
  flags.declare("churn-mttr", "sec", "mean node repair time");
  flags.declare("drop-prob", "p", "message drop probability (0 = lossless)");
  flags.declare("net-jitter", "sec", "max uniform extra message latency");
  flags.declare("agent-mtbf", "sec", "mean agent up-time (0 = no crashes)");
  flags.declare("agent-mttr", "sec", "mean agent restart time");
  flags.declare("grid-agents", "N",
                "generate an N-agent scenario grid instead of Fig. 7");
  flags.declare("grid-shape", "fanout|random", "scenario hierarchy shape");
  flags.declare("grid-fanout", "F", "children per agent (fanout shape)");
  flags.declare("grid-depth", "D",
                "max tree depth, 0 = unbounded (random shape)");
  flags.declare("grid-seed", "S", "random-tree wiring seed");
  flags.declare("grid-nodes", "N", "processing nodes per resource");
  flags.declare("requests-per-agent", "N",
                "scenario workload: requests per resource");
  flags.declare("arrival-interval", "sec",
                "mean seconds between submissions (0 = auto per-agent "
                "rate, scenario grids only)");
  flags.declare("arrival", "uniform|poisson|onoff|diurnal|trace",
                "submission-timing process (campaign)");
  flags.declare("arrival-trace", "file",
                "JSONL workload to replay verbatim (implies --arrival trace)");
  flags.declare("burst-on", "sec", "onoff arrivals: ON phase length");
  flags.declare("burst-off", "sec", "onoff arrivals: silent phase length");
  flags.declare("diurnal-period", "sec", "diurnal arrivals: cycle length");
  flags.declare("diurnal-amplitude", "a",
                "diurnal arrivals: rate swing in [0,1)");
  flags.declare("duration", "sec",
                "open-loop cutoff: stop at this sim time (0 = closed loop)");
  flags.declare("workload-out", "file",
                "export the generated workload as replayable JSONL");
  flags.declare("migration", "on|off",
                "threshold-triggered migration of queued tasks");
  flags.declare("migration-overload", "sec",
                "own backlog above which migration triggers");
  flags.declare("migration-underload", "sec",
                "neighbour backlog below which it accepts migrants");
  flags.declare("migration-batch", "N",
                "max queued tasks re-homed per advertisement");
  flags.declare("max-shed-rate", "x",
                "exit non-zero if (submitted-completed)/submitted exceeds x");
  flags.declare("deadline-scale", "x",
                "deadline tightness (<1 squeezes Table 1 domains)");
  flags.declare("timeline-out", "file",
                "write per-resource utilisation timeline CSV");
  flags.declare("timeline-window", "sec", "timeline bucket width");
  flags.declare("require-complete", "",
                "exit non-zero unless every task completed");
  flags.declare("csv", "", "emit CSV instead of tables");
  flags.declare("trace", "S1..S12", "render one resource's Gantt (campaign)");
  flags.declare("trace-out", "file", "write Chrome trace-event JSON");
  flags.declare("events-out", "file", "write flat JSONL event dump");
  flags.declare("metrics-json", "file", "write metrics registry as JSON");
  flags.declare("metrics-interval", "sec",
                "sample the registry every N sim-seconds (default 60)");
  flags.declare("series-out", "file", "write sampled time series as JSONL");
  flags.declare("series-csv", "file", "write sampled time series as CSV");
  flags.declare("progress", "", "print a heartbeat line per sample");
  flags.declare("app", "name", "paper application (predict)");
  flags.declare("model", "file", "PACE model file (predict)");
  flags.declare("hardware", "type", "platform name (predict)");
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = make_flags();
  const std::string usage =
      flags.usage("gridlb <table1|predict|experiment|campaign>");
  if (argc < 2) {
    std::fprintf(stderr, "%s", usage.c_str());
    return 1;
  }
  std::string command = argv[1];
  int flag_start = 2;
  if (command.rfind("-", 0) == 0) {
    // Bare flags with no command run a campaign, so scenario one-liners
    // like `gridlb --grid-agents 192 --requests-per-agent 25` work.
    command = "campaign";
    flag_start = 1;
  }
  // Usage errors exit 2 with the usage text; --help is not an error.
  try {
    flags.parse(argc - flag_start, argv + flag_start);
  } catch (const FlagError& error) {
    std::fprintf(stderr, "error: %s\n%s", error.what(), usage.c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(usage.c_str(), stdout);
    return 0;
  }
  try {
    if (command == "table1") return cmd_table1();
    if (command == "predict") return cmd_predict(flags);
    if (command == "experiment") return cmd_experiment(flags);
    if (command == "campaign") return cmd_campaign(flags);
    std::fprintf(stderr, "error: unknown command %s\n%s", command.c_str(),
                 usage.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
