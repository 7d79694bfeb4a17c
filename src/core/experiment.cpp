#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <iomanip>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "agents/portal.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"
#include "core/case_study.hpp"
#include "obs/trace.hpp"
#include "pace/paper_applications.hpp"
#include "sched/hash_placement.hpp"
#include "sim/engine.hpp"

namespace gridlb::core {

namespace {

ExperimentConfig base_experiment() {
  ExperimentConfig config;
  config.system.resources = case_study_resources();
  return config;
}

std::vector<std::string> resource_labels(const ExperimentConfig& config) {
  std::vector<std::string> names;
  names.reserve(config.system.resources.size());
  for (const auto& spec : config.system.resources) names.push_back(spec.name);
  return names;
}

/// End-of-run registry population.  Histograms fill live during the run
/// (queue depth, hops, staleness, GA convergence); the counters and
/// gauges below come from the authoritative per-subsystem statistics so
/// the registry snapshot always agrees with Table 3's inputs.
void populate_registry(obs::MetricsRegistry& registry,
                       const ExperimentResult& result) {
  registry.counter("portal.requests_submitted").add(result.requests_submitted);
  registry.counter("sched.tasks_completed").add(result.tasks_completed);
  registry.counter("agents.requests_dropped").add(result.tasks_dropped);
  registry.counter("sched.tasks_unfinished").add(result.tasks_unfinished);
  registry.counter("agents.migrations").add(result.migrations);
  registry.gauge("sched.shed_rate").set(result.shed_rate);
  registry.gauge("sched.latency_p50").set(result.latency_p50);
  registry.gauge("sched.latency_p90").set(result.latency_p90);
  registry.gauge("sched.latency_p99").set(result.latency_p99);
  registry.counter("sim.events").add(result.sim_events);
  registry.counter("sim.events_swept").add(result.events_swept);
  registry.counter("net.messages").add(result.network_messages);
  registry.counter("net.bytes").add(result.network_bytes);
  registry.counter("ga.decodes").add(result.ga_decodes);
  registry.counter("pace.table.reads").add(result.table_reads);
  // `cache` is the prediction table's traffic: every read, and one entry
  // (one engine evaluation) per miss.
  registry.counter("pace.table.reads_total").add(result.cache.hits);
  registry.gauge("pace.table.entries")
      .set(static_cast<double>(result.cache.misses));
  registry.gauge("discovery.mean_hops").set(result.mean_hops);
  registry.gauge("sim.finished_at").set(result.finished_at);

  std::uint64_t forwarded = 0;
  std::uint64_t advertisements = 0;
  std::uint64_t pulls = 0;
  for (const auto& stats : result.agent_stats) {
    forwarded += stats.forwarded_match + stats.forwarded_up;
    advertisements += stats.advertisements_received;
    pulls += stats.pulls_sent;
  }
  registry.counter("agents.requests_forwarded").add(forwarded);
  registry.counter("agents.advertisements_received").add(advertisements);
  registry.counter("agents.pulls_sent").add(pulls);

  registry.counter("net.messages_dropped").add(result.messages_dropped);
  registry.counter("net.messages_lost_outage").add(result.messages_lost_outage);
  registry.counter("ft.retries").add(result.message_retries);
  registry.counter("ft.sends_expired").add(result.sends_expired);
  registry.counter("ft.duplicates_suppressed")
      .add(result.duplicates_suppressed);
  registry.counter("agents.crashes").add(result.agent_crashes);
  registry.counter("agents.restarts").add(result.agent_restarts);
  registry.counter("portal.tasks_resubmitted").add(result.tasks_resubmitted);

  // Trace-ring drop accounting: always present, so a reader scanning the
  // metrics JSON can tell "nothing dropped" from "tracing was off".
  registry.counter("obs.trace_events").add(result.trace_events);
  registry.counter("obs.dropped_events").add(result.trace_dropped);
}

/// Derived flow statistics shared by the closed- and open-loop regimes:
/// standing backlog, shed rate, and the completion-latency percentiles.
/// All guarded against zero completions/submissions — a fully-shedding
/// overload window reports zeros, never NaN/inf.
void fill_flow_stats(ExperimentResult& result) {
  const std::uint64_t settled = result.tasks_completed + result.tasks_dropped;
  GRIDLB_ASSERT(settled <= result.requests_submitted);
  result.tasks_unfinished = result.requests_submitted - settled;
  result.shed_rate =
      result.requests_submitted > 0
          ? static_cast<double>(result.requests_submitted -
                                result.tasks_completed) /
                static_cast<double>(result.requests_submitted)
          : 0.0;
  std::vector<double> latencies;
  latencies.reserve(result.completions.size());
  for (const auto& record : result.completions) {
    latencies.push_back(record.end - record.submitted);
  }
  result.latency_p50 = metrics::percentile(latencies, 50.0);
  result.latency_p90 = metrics::percentile(latencies, 90.0);
  result.latency_p99 = metrics::percentile(std::move(latencies), 99.0);
}

/// Sum of processing nodes across the grid, for the utilisation plot's
/// denominator (`flow.busy_us / (dt * grid.total_nodes)`).
int total_grid_nodes(const agents::SystemConfig& system) {
  int nodes = 0;
  for (const auto& spec : system.resources) nodes += spec.node_count;
  return nodes;
}

/// Scoped observability for one experiment run: installs the instruments
/// on construction; `finish` fills the result's trace tallies, populates
/// the registry from the authoritative stats, and writes the configured
/// output files.
class ObsScope {
 public:
  explicit ObsScope(const ExperimentConfig& config) : config_(&config) {
    if (config.obs.enabled()) session_.emplace(config.obs);
  }

  [[nodiscard]] obs::Sampler* sampler() {
    return session_ ? session_->sampler() : nullptr;
  }

  void finish(ExperimentResult& result) {
    if (!session_) return;
    if (obs::TraceRecorder* recorder = session_->recorder()) {
      const obs::TraceSnapshot snapshot = recorder->snapshot();
      result.trace_events = snapshot.recorded;
      result.trace_dropped = snapshot.dropped;
    }
    // Close the time series at the finish time, before the end-of-run
    // tallies below land in the registry — the final row must describe
    // the run's tail, not the bulk-populated totals.
    if (obs::Sampler* sampler = session_->sampler()) {
      sampler->sample(result.finished_at);
    }
    if (obs::MetricsRegistry* registry = session_->registry()) {
      populate_registry(*registry, result);
    }
    session_->export_outputs(resource_labels(*config_));
  }

 private:
  const ExperimentConfig* config_;
  std::optional<obs::Session> session_;
};

/// Schedules the self-rescheduling sampler tick on `engine` at
/// `interval, 2*interval, ...` and returns the count of executed ticks.
/// Each tick is one extra engine event, so the caller subtracts the
/// returned count from `sim_events` to keep the published result
/// bit-for-bit identical to an unsampled run (DESIGN.md §14).
std::shared_ptr<std::uint64_t> schedule_sampler_ticks(
    sim::Engine& engine, obs::Sampler& sampler, double interval,
    bool progress, std::uint64_t expected,
    std::function<std::uint64_t()> completed) {
  auto executed = std::make_shared<std::uint64_t>(0);
  // Each tick reschedules a copy of itself, so the queue holds the only
  // reference.  A tick that captured itself would never be freed.
  struct Tick {
    sim::Engine* engine;
    obs::Sampler* sampler;
    std::shared_ptr<std::uint64_t> executed;
    double interval;
    bool progress;
    std::uint64_t expected;
    std::function<std::uint64_t()> completed;

    void operator()() const {
      ++*executed;
      const SimTime now = engine->now();
      sampler->sample(now);
      if (progress) {
        // Straight to stderr: the default log level hides log::info, and a
        // heartbeat the user asked for must not be silenced.
        std::fprintf(stderr,
                     "[gridlb] t=%.1fs  completed %" PRIu64 "/%" PRIu64 "\n",
                     now, completed(), expected);
      }
      engine->schedule_at(now + interval, *this);
    }
  };
  engine.schedule_at(
      interval, Tick{&engine, &sampler, executed, interval, progress, expected,
                     std::move(completed)});
  return executed;
}

}  // namespace

ExperimentConfig experiment1() {
  ExperimentConfig config = base_experiment();
  config.name = "Experiment 1 (FIFO, no agents)";
  config.system.policy = sched::SchedulerPolicy::kFifo;
  config.system.discovery_enabled = false;
  return config;
}

ExperimentConfig experiment2() {
  ExperimentConfig config = base_experiment();
  config.name = "Experiment 2 (GA, no agents)";
  config.system.policy = sched::SchedulerPolicy::kGa;
  config.system.discovery_enabled = false;
  return config;
}

ExperimentConfig experiment3() {
  ExperimentConfig config = base_experiment();
  config.name = "Experiment 3 (GA + agent discovery)";
  config.system.policy = sched::SchedulerPolicy::kGa;
  config.system.discovery_enabled = true;
  return config;
}

namespace {

/// The one experiment run loop.  The three placement families share the
/// engine, the agent system, the portal, the workload schedule, the
/// sampler, the drive and the result assembly; they differ only where a
/// workload entry is submitted:
///   kAgentDiscovery — the portal sends it to the workload's nominated
///       entry agent, byte-for-byte the historical run;
///   kHashPlacement  — the portal sends it to the agent the straw map
///       picks (run_experiment has already turned discovery and pulls off);
///   kCentralOracle  — the omniscient eq. 10 pick over every scheduler's
///       live freetime, submitted straight to the winning LocalScheduler
///       (run_experiment has already cleared the fault machinery, which
///       has nothing to act on).
ExperimentResult run_impl(const ExperimentConfig& config) {
  GRIDLB_REQUIRE(!config.system.resources.empty(),
                 "experiment needs resources");

  ObsScope obs_scope(config);
  sim::Engine engine;
  metrics::MetricsCollector collector;
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();

  agents::AgentSystem system(engine, catalogue, config.system, &collector);
  system.start();
  agents::Portal portal(engine, system.network(), catalogue, &collector,
                        config.system.retry_policy());
  portal.set_fallback_entry(&system.head());
  // A crash strands tasks on the dead agent; they reach the portal one
  // network latency later, as a message would (the fault-run pins
  // depend on this delay).
  const double resubmit_delay = config.system.network_latency;
  system.set_stranded_sink([&portal, &engine, resubmit_delay](TaskId task) {
    engine.schedule_in(resubmit_delay,
                       [&portal, task]() { portal.resubmit(task); });
  });

  // Stateless placement map (kHashPlacement only): one straw target per
  // resource, weighted by hardware capacity.  It mutates only inside
  // submission events, which run in workload order.
  std::optional<sched::HashPlacement> placement;
  std::uint64_t placement_decisions = 0;
  if (config.placement == PlacementFamily::kHashPlacement) {
    std::vector<sched::PlacementTarget> targets;
    targets.reserve(system.size());
    for (std::size_t i = 0; i < system.size(); ++i) {
      const agents::ResourceSpec& spec = config.system.resources[i];
      targets.push_back(sched::PlacementTarget{
          system.agent(i).id(),
          sched::HashPlacement::hardware_weight(
              pace::ResourceModel::of(spec.hardware), spec.node_count)});
    }
    placement.emplace(config.hash_placement, std::move(targets));
  }
  // Prediction-table reads made on the portal's side: the placement map's
  // occupancy snapshots and the oracle's eq. 10 scans.
  std::uint64_t portal_reads = 0;
  // Expected occupancy of one task of an application on each target (the
  // same optimistic figure the ACT bookkeeping advances freetime by:
  // execution time × nodes / nproc at the most efficient allocation),
  // memoised per application.  Feeds the placement map's local backlog
  // snapshots; no messages involved.
  std::unordered_map<std::string, std::vector<double>> occupancy_memo;
  const auto occupancy_of = [&](const std::string& app_name,
                                std::size_t index) -> double {
    auto [it, inserted] = occupancy_memo.try_emplace(app_name);
    if (inserted) {
      const pace::ApplicationModelPtr app = catalogue.find(app_name);
      GRIDLB_REQUIRE(app != nullptr, "unknown application: " + app_name);
      it->second.reserve(system.size());
      for (std::size_t i = 0; i < system.size(); ++i) {
        const agents::ResourceSpec& spec = config.system.resources[i];
        const auto row = system.predictions()
                             .row(*app, pace::ResourceModel::of(spec.hardware))
                             .first(static_cast<std::size_t>(spec.node_count));
        portal_reads += row.size();
        it->second.push_back(pace::occupancy(row));
      }
    }
    return it->second[index];
  };
  // The straw draw for workload entry `idx`.  The straw key is the
  // workload ordinal — equal to the TaskId the portal is about to assign
  // minus one (submissions execute in workload order).
  const auto hashed_entry = [&](std::size_t idx, const std::string& app_name,
                                SimTime now) -> std::size_t {
    const sched::PlacementDecision decision = placement->place(idx, now);
    placement->record_dispatch(decision.index, now,
                               occupancy_of(app_name, decision.index));
    ++placement_decisions;
    obs::emit({.at = now,
               .kind = obs::EventKind::kPlacementDecision,
               .extra = static_cast<std::uint32_t>(decision.index),
               .task = idx + 1,
               .resource = decision.resource.value(),
               .a = decision.draw,
               .b = placement->targets()[decision.index].weight});
    if (auto* reg = obs::registry()) {
      reg->counter("placement.decisions").add(1);
    }
    return decision.index;
  };
  // Omniscient eq. 10: live freetime, no advertisement staleness, no
  // messages.  Task ids follow the workload ordinal, as the portal's do.
  const auto oracle_submit = [&](std::size_t idx, const std::string& app_name,
                                 SimTime now, SimTime deadline) {
    const pace::ApplicationModelPtr app = catalogue.find(app_name);
    GRIDLB_REQUIRE(app != nullptr, "unknown application: " + app_name);
    std::size_t best = 0;
    double best_eta = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < system.size(); ++i) {
      const sched::LocalScheduler& scheduler = system.agent(i).scheduler();
      const double backlog = std::max(0.0, scheduler.freetime() - now);
      const auto row =
          system.predictions()
              .row(*app, scheduler.config().resource)
              .first(static_cast<std::size_t>(scheduler.config().node_count));
      portal_reads += row.size();
      const double eta = backlog + pace::fastest(row);
      if (eta < best_eta) {
        best_eta = eta;
        best = i;
      }
    }
    sched::Task task;
    task.id = TaskId(idx + 1);
    task.app = app;
    task.arrival = now;
    task.deadline = deadline;
    collector.on_submission(now);
    system.agent(best).scheduler().submit(std::move(task));
  };

  const std::vector<RequestSpec> workload = generate_workload(
      config.workload, catalogue, static_cast<int>(system.size()));
  const SimTime duration = config.duration;
  const bool open_loop = duration > 0.0;
  std::uint64_t scheduled = 0;
  for (std::size_t idx = 0; idx < workload.size(); ++idx) {
    const RequestSpec& spec = workload[idx];
    if (open_loop && spec.at >= duration) {
      // Submission times are non-decreasing, so everything from here on is
      // past the cutoff and would never execute.
      break;
    }
    ++scheduled;
    engine.schedule_at(spec.at, [&, spec, idx]() {
      const SimTime now = engine.now();
      const SimTime deadline = now + spec.deadline_offset;
      switch (config.placement) {
        case PlacementFamily::kAgentDiscovery:
          portal.submit(
              system.agent(static_cast<std::size_t>(spec.agent_index)),
              spec.app_name, deadline);
          return;
        case PlacementFamily::kHashPlacement:
          portal.submit(system.agent(hashed_entry(idx, spec.app_name, now)),
                        spec.app_name, deadline);
          return;
        case PlacementFamily::kCentralOracle:
          oracle_submit(idx, spec.app_name, now, deadline);
          return;
      }
    });
  }

  const std::uint64_t expected = scheduled;

  // Continuous profiling: sampler ticks at least one network latency
  // apart.
  std::shared_ptr<std::uint64_t> sampler_ticks;
  if (obs::Sampler* sampler = obs_scope.sampler()) {
    if (auto* reg = obs::registry()) {
      reg->gauge("grid.agents").set(static_cast<double>(system.size()));
      reg->gauge("grid.total_nodes")
          .set(static_cast<double>(total_grid_nodes(config.system)));
    }
    const double interval = std::max(config.obs.effective_interval(),
                                     config.system.network_latency);
    sampler_ticks = schedule_sampler_ticks(
        engine, *sampler, interval, config.obs.progress, expected,
        [&system]() { return system.completed_count(); });
  }

  // Drive: closed-loop until every submitted task completed or was dropped
  // (the periodic advertisement pulls keep the event queue non-empty
  // forever, so settlement — not queue exhaustion — is the stop
  // condition), or open-loop until the duration cutoff: exactly the
  // events with time < duration run.  Drops count through dropped_count(),
  // so one condition covers strict and non-strict mode.
  while (system.completed_count() + system.dropped_count() < expected) {
    const SimTime next = engine.next_event_time();
    if (next == kTimeInfinity) {
      GRIDLB_REQUIRE(open_loop, "event queue drained with tasks missing");
      break;
    }
    if (open_loop && next >= duration) break;
    GRIDLB_REQUIRE(next <= config.horizon_limit,
                   "experiment exceeded the horizon limit");
    // Stepped here, not in engine.cpp: a --wrap of Engine::step must see it.
    engine.step();
  }

  ExperimentResult result;
  result.name = config.name;
  // An open-loop report is evaluated over the truncated window ending at
  // the cutoff, not at the last completion inside it.
  result.report = collector.report(
      open_loop ? std::optional<SimTime>(duration) : std::nullopt);
  result.completions = collector.records();
  result.requests_submitted = expected;
  result.tasks_completed = collector.completed_tasks();
  result.finished_at = engine.now();
  // Observation neutrality: sampler ticks are engine events, so their
  // executions are subtracted back out — the published count must be
  // bit-for-bit what an unsampled run reports.
  result.sim_events = engine.events_processed() -
                      (sampler_ticks != nullptr ? *sampler_ticks : 0);
  result.events_swept = engine.events_swept();
  result.network_messages = system.network().total_messages();
  result.network_bytes = system.network().total_bytes();

  std::uint64_t hops = 0;
  std::uint64_t agent_reads = 0;
  std::uint64_t executed = 0;
  for (std::size_t i = 0; i < system.size(); ++i) {
    const agents::Agent& agent = system.agent(i);
    result.agent_stats.push_back(agent.stats());
    result.tasks_dropped += agent.stats().dropped;
    result.migrations += agent.stats().migrations;
    hops += agent.stats().hops_accumulated;
    executed += agent.stats().dispatched_local;
    result.ga_decodes += agent.scheduler().ga_decodes();
    result.fifo_subsets += agent.scheduler().fifo_subsets_tried();
    result.table_reads += agent.scheduler().prediction_table_reads();
    agent_reads += agent.table_reads();
  }
  result.cache = {.hits = result.table_reads + agent_reads + portal_reads,
                  .misses = system.predictions().entries()};
  result.mean_hops =
      executed > 0 ? static_cast<double>(hops) / static_cast<double>(executed)
                   : 0.0;

  const sim::FaultStats& faults = system.network().fault_stats();
  result.messages_dropped = faults.dropped_by_plan();
  result.messages_lost_outage = faults.dropped_endpoint_down;
  result.tasks_resubmitted = portal.tasks_resubmitted();
  const auto tally_link = [&result](const agents::LinkStats& link) {
    result.message_retries += link.retries;
    result.sends_expired += link.expired;
    result.duplicates_suppressed += link.duplicates_suppressed;
  };
  tally_link(portal.link_stats());
  for (std::size_t i = 0; i < system.size(); ++i) {
    tally_link(system.agent(i).link_stats());
    result.agent_crashes += system.agent(i).stats().crashes;
    result.agent_restarts += system.agent(i).stats().restarts;
  }
  result.placement_decisions = placement_decisions;
  fill_flow_stats(result);
  obs_scope.finish(result);
  return result;
}

}  // namespace

std::string placement_family_name(PlacementFamily family) {
  switch (family) {
    case PlacementFamily::kAgentDiscovery: return "agent";
    case PlacementFamily::kCentralOracle: return "central";
    case PlacementFamily::kHashPlacement: return "crush";
  }
  GRIDLB_REQUIRE(false, "unknown placement family");
}

PlacementFamily placement_family_from_name(const std::string& name) {
  for (const PlacementFamily family :
       {PlacementFamily::kAgentDiscovery, PlacementFamily::kCentralOracle,
        PlacementFamily::kHashPlacement}) {
    if (name == placement_family_name(family)) return family;
  }
  GRIDLB_REQUIRE(false, "unknown placement family: " + name +
                            " (expected agent, central or crush)");
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (config.placement == PlacementFamily::kAgentDiscovery) {
    return run_impl(config);
  }
  // The straw map and the oracle resolve every request up front, so the
  // hierarchy's discovery walk and advertisement pulls would be dead
  // weight: turn them off and let the chosen resource execute each request.
  ExperimentConfig cooled = config;
  cooled.system.discovery_enabled = false;
  cooled.system.pull_period = 0.0;
  if (config.placement == PlacementFamily::kCentralOracle) {
    // The oracle's submissions bypass the network, so the fault machinery
    // has nothing to act on (and, with no fault source left, the protocol
    // is not loss-tolerant).
    cooled.system.fault = {};
    cooled.system.agent_churn = {};
  }
  return run_impl(cooled);
}

std::vector<ExperimentResult> run_many(
    std::span<const ExperimentConfig> configs) {
  std::vector<ExperimentResult> results(configs.size());
  std::vector<std::exception_ptr> errors(configs.size());
  // Each worker takes the next unclaimed config until none is left, so a
  // long run never holds up the short ones queued behind it.
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < configs.size(); i = next++) {
      try {
        results[i] = run_experiment(configs[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t threads = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), configs.size());
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(work);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

std::string format_table3(const std::vector<ExperimentResult>& results) {
  GRIDLB_REQUIRE(!results.empty(), "no results to format");
  const std::size_t rows = results.front().report.resources.size();
  for (const auto& result : results) {
    GRIDLB_REQUIRE(result.report.resources.size() == rows,
                   "results cover different resource sets");
  }

  std::ostringstream os;
  os << std::fixed;
  os << std::setw(6) << "";
  for (std::size_t e = 0; e < results.size(); ++e) {
    os << " | " << std::setw(9) << "eps(s)" << std::setw(9) << "util(%)"
       << std::setw(9) << "beta(%)";
  }
  os << '\n';
  os << std::setw(6) << "agent";
  for (std::size_t e = 0; e < results.size(); ++e) {
    std::string header = "experiment " + std::to_string(e + 1);
    os << " | " << std::setw(27) << header;
  }
  os << '\n';

  const auto emit_row = [&os, &results](std::size_t row, bool total) {
    os << std::setw(6)
       << (total ? "Total" : results.front().report.resources[row].label);
    for (const auto& result : results) {
      const metrics::MetricsRow& metrics_row =
          total ? result.report.total : result.report.resources[row];
      os << " | " << std::setw(9) << std::setprecision(0)
         << metrics_row.advance_time << std::setw(9) << std::setprecision(0)
         << metrics_row.utilisation * 100.0 << std::setw(9)
         << std::setprecision(0) << metrics_row.balance * 100.0;
    }
    os << '\n';
  };
  for (std::size_t row = 0; row < rows; ++row) emit_row(row, false);
  emit_row(0, true);
  return os.str();
}

}  // namespace gridlb::core
