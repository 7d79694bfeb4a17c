#include "agents/agent.hpp"

#include <algorithm>
#include <limits>

#include "agents/agent_system.hpp"
#include "agents/numbers.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pace/hardware.hpp"

namespace gridlb::agents {

Agent::Agent(sim::Engine& engine, sim::Network& network,
             const pace::PredictionTable& predictions,
             const pace::ApplicationCatalogue& catalogue,
             const SystemConfig& grid, AgentConfig config,
             sched::LocalScheduler& scheduler)
    : engine_(engine),
      network_(network),
      predictions_(predictions),
      catalogue_(catalogue),
      grid_(grid),
      config_(std::move(config)),
      scheduler_(scheduler),
      link_(engine, network, grid.loss_tolerant()) {
  GRIDLB_REQUIRE(config_.id.valid(), "agent needs a valid id");
  endpoint_ = network_.register_endpoint(
      [this](const sim::Message& message) { on_message(message); });
  link_.set_self(endpoint_);
}

void Agent::set_parent(Agent* parent) {
  GRIDLB_REQUIRE(parent != this, "an agent cannot be its own parent");
  parent_ = parent;
}

void Agent::add_child(Agent* child) {
  GRIDLB_REQUIRE(child != nullptr && child != this, "invalid child agent");
  children_.push_back(child);
}

void Agent::start() { start_pulls(0.0); }

void Agent::start_pulls(SimTime start) {
  if (!grid_.discovery_enabled || grid_.pull_period <= 0.0) return;
  engine_.schedule_periodic(start, grid_.pull_period,
                            [this, epoch = pull_epoch_]() {
                              if (epoch != pull_epoch_) return false;
                              pull_from_neighbours();
                              return true;
                            });
}

std::vector<TaskId> Agent::crash() {
  GRIDLB_REQUIRE(alive_, "cannot crash a dead agent");
  alive_ = false;
  ++stats_.crashes;
  network_.set_endpoint_up(endpoint_, false);
  ++pull_epoch_;
  act_ = CapabilityTable{};
  pending_results_.clear();
  queue_copies_.clear();  // the drained pending tasks go back via the portal
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kAgentCrashed,
             .resource = config_.id.value()});
  log::warn("agent ", config_.name, " t=", engine_.now(), " crashed");
  std::vector<TaskId> stranded = scheduler_.drain_pending();
  // Requests this agent had forwarded but not yet seen acked die with it;
  // without recovery they would be black holes (the sender's retries are
  // gone too).  Results are not recovered: their execution already counted.
  for (const std::string& payload : link_.reset()) {
    xml::Reader document(payload);
    if (document.attribute("type") == "request") {
      stranded.push_back(request_from_xml(document).task);
    }
  }
  return stranded;
}

void Agent::restart() {
  GRIDLB_REQUIRE(!alive_, "cannot restart a live agent");
  alive_ = true;
  ++stats_.restarts;
  network_.set_endpoint_up(endpoint_, true);
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kAgentRestarted,
             .resource = config_.id.value()});
  start_pulls(engine_.now());
}

ServiceInfo Agent::service_snapshot() const {
  ServiceInfo info;
  info.agent_address = config_.address;
  info.agent_port = config_.port;
  info.local_address = config_.address;
  info.local_port = config_.port + 9000;  // scheduler's own port (Fig. 5)
  info.hardware_type =
      std::string(pace::hardware_name(scheduler_.config().resource.type));
  info.nproc = scheduler_.config().node_count;
  info.environments = scheduler_.config().environments;
  info.freetime = scheduler_.freetime();
  return info;
}

std::optional<std::span<const double>> Agent::prediction_row(
    const ServiceInfo& info, const Request& request) const {
  const pace::ApplicationModelPtr app = catalogue_.find(request.app_name);
  if (app == nullptr) return std::nullopt;
  const auto type = pace::hardware_from_name(info.hardware_type);
  if (!type) return std::nullopt;
  const std::span<const double> row =
      predictions_.row(*app, pace::ResourceModel::of(*type));
  GRIDLB_REQUIRE(info.nproc <= static_cast<int>(row.size()),
                 "advertised nproc exceeds the prediction table");
  const auto nproc = static_cast<std::size_t>(std::max(info.nproc, 0));
  table_reads_ += nproc;
  return row.first(nproc);
}

std::optional<SimTime> Agent::estimate_completion(
    const ServiceInfo& info, const Request& request) const {
  if (std::find(info.environments.begin(), info.environments.end(),
                request.environment) == info.environments.end()) {
    return std::nullopt;
  }
  const auto row = prediction_row(info, request);
  if (!row) return std::nullopt;
  // eq. 10: for a homogeneous resource the evaluation function is called
  // n times; η_r = ω + min_k t_x(k, σ_r).
  const SimTime now = engine_.now();
  const double backlog = std::max(0.0, info.freetime - now);
  return now + backlog + pace::fastest(*row);
}

std::optional<double> Agent::expected_occupancy(const ServiceInfo& info,
                                                const Request& request) const {
  if (info.nproc <= 0) return std::nullopt;
  const auto row = prediction_row(info, request);
  if (!row) return std::nullopt;
  return pace::occupancy(*row);
}

bool Agent::already_visited(const Request& request, AgentId agent) const {
  return std::find(request.visited.begin(), request.visited.end(), agent) !=
         request.visited.end();
}

Agent* Agent::neighbour_by_id(AgentId agent) const {
  if (parent_ != nullptr && parent_->id() == agent) return parent_;
  for (Agent* child : children_) {
    if (child->id() == agent) return child;
  }
  return nullptr;
}

std::optional<AgentId> Agent::neighbour_for_endpoint(
    sim::EndpointId endpoint) const {
  if (parent_ != nullptr && parent_->endpoint() == endpoint) {
    return parent_->id();
  }
  for (const Agent* child : children_) {
    if (child->endpoint() == endpoint) return child->id();
  }
  return std::nullopt;
}

void Agent::receive_request(Request request, bool final_dispatch) {
  ++stats_.requests_received;
  const auto hops = static_cast<std::uint64_t>(request.visited.size());

  if (final_dispatch || !grid_.discovery_enabled) {
    dispatch_local(std::move(request), hops);
    return;
  }

  if (hops >= kMaxHops) {
    // Routing budget exhausted (only reachable with transitive routing
    // gone degenerate): execute here rather than bounce forever.
    if (grid_.strict_failure) {
      note_strict_drop(request, hops);
      return;
    }
    ++stats_.fallback_dispatches;
    obs::emit({.at = engine_.now(),
               .kind = obs::EventKind::kDiscoveryFallback,
               .extra = static_cast<std::uint32_t>(hops),
               .task = request.task.value(),
               .resource = config_.id.value()});
    dispatch_local(std::move(request), hops);
    return;
  }
  if (!already_visited(request, config_.id)) {
    request.visited.push_back(config_.id);
  }

  // 1. Own service first.
  const ServiceInfo own = service_snapshot();
  if (const auto eta = estimate_completion(own, request);
      eta && *eta <= request.deadline) {
    obs::emit({.at = engine_.now(),
               .kind = obs::EventKind::kDiscoveryLocal,
               .extra = static_cast<std::uint32_t>(hops),
               .task = request.task.value(),
               .resource = config_.id.value(),
               .a = *eta});
    dispatch_local(std::move(request), hops);
    return;
  }

  // 2. Advertised services: best requirement/resource match.  Each entry
  // is routed through the neighbour it was learned from (for a
  // neighbour's own service, the neighbour itself).
  Agent* best_route = nullptr;
  AgentId best_described;
  const ServiceInfo* best_info = nullptr;
  SimTime best_eta = std::numeric_limits<double>::infinity();
  SimTime best_updated = 0.0;
  const double act_expiry = grid_.act_expiry();
  for (const auto& entry : act_.entries()) {
    if (entry.agent == config_.id) continue;
    if (already_visited(request, entry.agent)) continue;
    if (CapabilityTable::expired(entry, engine_.now(), act_expiry)) {
      continue;  // neighbour stopped advertising — suspected dead
    }
    Agent* route = neighbour_by_id(entry.via);
    if (route == nullptr) continue;
    if (const auto eta = estimate_completion(entry.info, request);
        eta && *eta <= request.deadline && *eta < best_eta) {
      best_eta = *eta;
      best_route = route;
      best_described = entry.agent;
      best_info = &entry.info;
      best_updated = entry.updated_at;
    }
  }
  if (best_route != nullptr) {
    ++stats_.forwarded_match;
    const double staleness = std::max(0.0, engine_.now() - best_updated);
    obs::emit({.at = engine_.now(),
               .kind = obs::EventKind::kDiscoveryNeighbour,
               .extra = static_cast<std::uint32_t>(hops),
               .task = request.task.value(),
               .resource = best_described.value(),
               .a = best_eta,
               .b = staleness});
    if (auto* reg = obs::registry()) {
      reg->histogram("act.staleness_at_use",
                     {0.0, 0.5, 1, 2, 5, 10, 20, 50, 100, 200})
          .observe(staleness);
    }
    if (const auto occupancy = expected_occupancy(*best_info, request)) {
      act_.advance_freetime(best_described, engine_.now(), *occupancy);
    }
    forward(std::move(request), best_route, false);
    return;
  }

  // 3. No advertised service meets the requirement: escalate.
  if (parent_ != nullptr && !already_visited(request, parent_->id())) {
    ++stats_.forwarded_up;
    obs::emit({.at = engine_.now(),
               .kind = obs::EventKind::kDiscoveryUpper,
               .extra = static_cast<std::uint32_t>(hops),
               .task = request.task.value(),
               .resource = parent_->id().value()});
    forward(std::move(request), parent_, false);
    return;
  }

  // 4. Head of the hierarchy (or dead end): discovery terminated
  // unsuccessfully in the paper's sense.
  if (grid_.strict_failure) {
    note_strict_drop(request, hops);
    log::warn("agent ", config_.name, " t=", engine_.now(), " task ",
              request.task.str(), " dropped: no grid resource matches");
    return;
  }
  ++stats_.fallback_dispatches;
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kDiscoveryFallback,
             .extra = static_cast<std::uint32_t>(hops),
             .task = request.task.value(),
             .resource = config_.id.value()});
  // Best effort: smallest estimated completion among the own resource and
  // every known service, deadline or not.
  Agent* target = nullptr;  // nullptr = self
  const ServiceInfo* target_info = nullptr;
  SimTime target_eta =
      estimate_completion(own, request)
          .value_or(std::numeric_limits<double>::infinity());
  for (const auto& entry : act_.entries()) {
    // Final dispatch executes at the recipient, so only services owned by
    // a direct neighbour qualify here.
    if (entry.via != entry.agent) continue;
    if (CapabilityTable::expired(entry, engine_.now(), act_expiry)) {
      continue;
    }
    Agent* neighbour = neighbour_by_id(entry.agent);
    if (neighbour == nullptr) continue;
    if (const auto eta = estimate_completion(entry.info, request);
        eta && *eta < target_eta) {
      target_eta = *eta;
      target = neighbour;
      target_info = &entry.info;
    }
  }
  if (target == nullptr) {
    dispatch_local(std::move(request), hops);
  } else {
    if (const auto occupancy = expected_occupancy(*target_info, request)) {
      act_.advance_freetime(target->id(), engine_.now(), *occupancy);
    }
    forward(std::move(request), target, true);
  }
}

void Agent::note_strict_drop(const Request& request, std::uint64_t hops) {
  ++stats_.dropped;
  if (auto* reg = obs::registry()) reg->counter("flow.dropped").add(1);
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kRequestRejected,
             .extra = static_cast<std::uint32_t>(hops),
             .task = request.task.value(),
             .resource = config_.id.value()});
  if (drop_sink_) {
    // Deferred by one network latency: the drop counts towards the run
    // loop's stop condition like a completion does, one hop after the
    // rejection.
    const TaskId task = request.task;
    engine_.schedule_at(engine_.now() + network_.latency(),
                        [this, task]() { drop_sink_(task); });
  }
}

void Agent::dispatch_local(Request request, std::uint64_t hops_before) {
  ++stats_.dispatched_local;
  stats_.hops_accumulated += hops_before;
  if (hops_before == 0) ++stats_.zero_hop_dispatches;
  const auto hops = static_cast<std::uint32_t>(request.visited.size());
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kRequestDispatched,
             .extra = hops,
             .task = request.task.value(),
             .resource = config_.id.value(),
             .a = request.deadline});
  if (auto* reg = obs::registry()) {
    reg->histogram("discovery.hops", {0, 1, 2, 3, 4, 6, 8, 12, 16})
        .observe(static_cast<double>(hops));
  }
  const pace::ApplicationModelPtr app = catalogue_.find(request.app_name);
  GRIDLB_REQUIRE(app != nullptr,
                 "dispatch of unknown application " + request.app_name);
  if (request.origin) {
    pending_results_.push_back(
        PendingResult{request.task, *request.origin, request.email});
  }
  if (grid_.migration.enabled) queue_copies_.push_back(request);
  sched::Task task;
  task.id = request.task;
  task.app = app;
  task.arrival = engine_.now();
  task.deadline = request.deadline;
  task.environment = request.environment;
  scheduler_.submit(std::move(task));
  if (grid_.push_on_dispatch) push_to_neighbours();
}

void Agent::on_task_completed(const sched::CompletionRecord& record) {
  if (!queue_copies_.empty()) {
    const auto copy = std::find_if(
        queue_copies_.begin(), queue_copies_.end(),
        [&record](const Request& r) { return r.task == record.task; });
    if (copy != queue_copies_.end()) queue_copies_.erase(copy);
  }
  const auto it = std::find_if(
      pending_results_.begin(), pending_results_.end(),
      [&record](const PendingResult& pending) {
        return pending.task == record.task;
      });
  if (it == pending_results_.end()) return;  // fire-and-forget submission
  if (!alive_) return;  // the process that knew the origin died with it

  ExecutionResult result;
  result.task = record.task;
  result.app_name = record.app_name;
  result.resource_name = config_.name;
  result.start = record.start;
  result.completion = record.end;
  result.deadline = record.deadline;
  result.email = it->email;
  const sim::EndpointId origin = it->origin;
  pending_results_.erase(it);
  ++stats_.results_sent;
  link_.send(origin, to_xml(result));
}

void Agent::forward(Request request, Agent* to, bool final_dispatch) {
  GRIDLB_REQUIRE(to != nullptr, "cannot forward to a null agent");
  std::string payload = to_xml(request);
  // The `final` marker rides as a root attribute, like taskid/visited.
  if (final_dispatch) xml::stamp_root(payload, "final", "1");
  link_.send(to->endpoint(), std::move(payload),
             [this](sim::EndpointId dead, const std::string& lost) {
               handle_send_failure(dead, lost);
             });
}

void Agent::handle_send_failure(sim::EndpointId to, const std::string& payload) {
  if (!alive_) return;  // crashed while the retries were in flight
  const auto neighbour = neighbour_for_endpoint(to);
  xml::Reader document(payload);
  const auto type = document.attribute("type");
  if (neighbour) {
    // Retry budget exhausted: distrust everything learned from or about
    // that neighbour so discovery stops routing through it.
    const std::size_t purged = act_.erase_involving(*neighbour);
    log::warn("agent ", config_.name, " t=", engine_.now(), " neighbour ",
              neighbour->str(), " unresponsive, purged ", purged,
              " ACT entries");
  }
  // A result whose retries ran out is lost: nothing sends it again, and
  // the portal's count of received results misses it.
  if (type != "request") return;
  Request request = request_from_xml(document);
  if (neighbour && !already_visited(request, *neighbour)) {
    request.visited.push_back(*neighbour);
  }
  ++stats_.reroutes;
  log::warn("agent ", config_.name, " t=", engine_.now(), " task ",
            request.task.str(), " rerouting after delivery failure");
  receive_request(std::move(request), false);
}

void Agent::pull_from_neighbours() {
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kAdvertisementPull,
             .resource = config_.id.value(),
             .a = static_cast<double>(act_.size())});
  xml::Writer pull(32);
  pull.open("agentgrid");
  pull.attribute("type", "pull");
  pull.close();
  const std::string payload = std::move(pull).finish();
  if (parent_ != nullptr) {
    ++stats_.pulls_sent;
    network_.send(endpoint_, parent_->endpoint(), payload);
  }
  for (const Agent* child : children_) {
    ++stats_.pulls_sent;
    network_.send(endpoint_, child->endpoint(), payload);
  }
}

void Agent::push_to_neighbours() {
  const std::string payload = to_xml(service_snapshot());
  if (parent_ != nullptr) {
    network_.send(endpoint_, parent_->endpoint(), payload);
  }
  for (const Agent* child : children_) {
    network_.send(endpoint_, child->endpoint(), payload);
  }
}

void Agent::on_message(const sim::Message& message) {
  // Dispatch on the root start tag; the typed readers read the body.
  xml::Reader document(message.payload);
  if (link_.on_message(message, document) ==
      ReliableLink::Inbound::kConsumed) {
    return;
  }
  GRIDLB_REQUIRE(document.name() == "agentgrid",
                 "unexpected message document: " +
                     std::string(document.name()));
  const auto type = document.attribute("type");
  GRIDLB_REQUIRE(type.has_value(), "agentgrid message lacks a type");

  if (*type == "pull") {
    document.finish();
    handle_pull(message);
  } else if (*type == "service") {
    handle_advertisement(message, document);
  } else if (*type == "request") {
    const bool final_dispatch = document.attribute("final") == "1";
    receive_request(request_from_xml(document), final_dispatch);
  } else {
    GRIDLB_REQUIRE(false, "unknown agentgrid message type");
  }
}

void Agent::handle_pull(const sim::Message& message) {
  network_.send(endpoint_, message.from, to_xml(service_snapshot()));
  if (grid_.scope != AdvertisementScope::kTransitive) return;
  // Relay known services, split-horizon: never back toward the neighbour
  // they were learned from, and never the requester's own service.
  const auto requester = neighbour_for_endpoint(message.from);
  if (!requester) return;
  for (const auto& entry : act_.entries()) {
    if (entry.via == *requester || entry.agent == *requester) continue;
    std::string document = to_xml(entry.info);
    xml::stamp_root(document, "agentid",
                    NumberText(entry.agent.value()).view());
    network_.send(endpoint_, message.from, std::move(document));
  }
}

void Agent::handle_advertisement(const sim::Message& message,
                                 xml::Reader& document) {
  const auto sender = neighbour_for_endpoint(message.from);
  if (!sender) {
    log::warn("agent ", config_.name, " t=", engine_.now(),
              " ignoring advertisement from non-neighbour endpoint");
    static_cast<void>(service_info_from_xml(document));  // still checked
    return;
  }
  ++stats_.advertisements_received;
  // A relayed advertisement names the described resource in the `agentid`
  // attribute; a plain one describes the sender itself.
  AgentId described = *sender;
  if (const auto agentid = document.attribute("agentid")) {
    described = AgentId(read_number<std::uint64_t>(*agentid, "agentid"));
  }
  if (described == config_.id) {  // echo of our own service, still checked
    static_cast<void>(service_info_from_xml(document));
    return;
  }
  // `a` carries the age of the entry being replaced (0 for a first sight):
  // the refresh interval actually achieved, as opposed to the staleness
  // observed when an entry is *used* (kDiscoveryNeighbour's `b`).
  const auto* previous = act_.find(described);
  const double refresh_age =
      previous ? std::max(0.0, engine_.now() - previous->updated_at) : 0.0;
  obs::emit({.at = engine_.now(),
             .kind = obs::EventKind::kAdvertisementReceived,
             .resource = described.value(),
             .a = refresh_age});
  act_.upsert(described, service_info_from_xml(document),
              engine_.now(), *sender);
  maybe_migrate(described);
}

void Agent::maybe_migrate(AgentId described) {
  if (!grid_.migration.enabled || queue_copies_.empty()) return;
  // Migrations are final dispatches, so only a direct neighbour — one we
  // can deliver to ourselves — qualifies as a target.
  Agent* const target = neighbour_by_id(described);
  if (target == nullptr) return;
  const SimTime now = engine_.now();
  const double own_backlog = std::max(0.0, scheduler_.freetime() - now);
  if (own_backlog <= kMigrationOverload) return;
  const CapabilityTable::Entry* entry = act_.find(described);
  if (entry == nullptr) return;
  if (std::max(0.0, entry->info.freetime - now) >= kMigrationUnderload) {
    return;
  }

  // Newest queued tasks first: they are the deepest in the backlog and
  // gain the most from re-homing.
  int moved = 0;
  for (std::size_t i = queue_copies_.size();
       i-- > 0 && moved < kMigrationBatch;) {
    Request request = queue_copies_[i];
    if (already_visited(request, described)) continue;
    if (request.visited.size() >= kMaxHops) continue;
    if (!estimate_completion(entry->info, request)) continue;
    if (!scheduler_.cancel(request.task)) {
      // Already started (or gone): the retained copy is stale.
      queue_copies_.erase(queue_copies_.begin() +
                          static_cast<std::ptrdiff_t>(i));
      continue;
    }
    // The queue slot is gone; reply routing moves with the request (its
    // origin/email ride the document and the recipient re-records them).
    if (!already_visited(request, config_.id)) {
      request.visited.push_back(config_.id);
    }
    const auto pending = std::find_if(
        pending_results_.begin(), pending_results_.end(),
        [&request](const PendingResult& p) { return p.task == request.task; });
    if (pending != pending_results_.end()) pending_results_.erase(pending);
    ++stats_.migrations;
    if (auto* reg = obs::registry()) reg->counter("flow.migrated").add(1);
    obs::emit({.at = now,
               .kind = obs::EventKind::kTaskMigrated,
               .extra = static_cast<std::uint32_t>(request.visited.size()),
               .task = request.task.value(),
               .resource = described.value(),
               .a = own_backlog,
               .b = std::max(0.0, entry->info.freetime - now)});
    if (const auto occupancy = expected_occupancy(entry->info, request)) {
      act_.advance_freetime(described, now, *occupancy);
    }
    queue_copies_.erase(queue_copies_.begin() +
                        static_cast<std::ptrdiff_t>(i));
    forward(std::move(request), target, true);
    ++moved;
  }
}

}  // namespace gridlb::agents
