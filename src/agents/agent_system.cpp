#include "agents/agent_system.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace gridlb::agents {

namespace {

pace::PredictionTable grid_predictions(
    const pace::ApplicationCatalogue& catalogue,
    const std::vector<ResourceSpec>& resources) {
  GRIDLB_REQUIRE(!resources.empty(), "grid needs >= 1 resource");
  std::vector<pace::ResourceModel> platforms;
  int width = 1;
  for (const ResourceSpec& spec : resources) {
    platforms.push_back(pace::ResourceModel::of(spec.hardware));
    width = std::max(width, spec.node_count);
  }
  return pace::PredictionTable(catalogue, platforms, width);
}

/// `value` in the fewest digits %g needs ("0.05", not "0.050000").
std::string shortest_text(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

}  // namespace

void SystemConfig::validate() const {
  fault.validate();
  GRIDLB_REQUIRE(std::isfinite(pull_period) && pull_period >= 0.0,
                 "pull period must be finite and >= 0 (0 = no advertisement "
                 "pulls)");
  // A period shorter than one network hop starts the next pull before the
  // last one's advertisements can arrive, flooding the event queue.
  GRIDLB_REQUIRE(pull_period == 0.0 || pull_period >= kNetworkLatency,
                 "pull period must be 0 (no advertisement pulls) or at least "
                 "one network latency (" + shortest_text(kNetworkLatency) +
                     " s)");
  for (const ResourceSpec& spec : resources) {
    sched::LocalScheduler::Config scheduler;
    scheduler.node_count = spec.node_count;
    scheduler.prediction_error = prediction_error;
    scheduler.validate();
  }
  churn.validate("node");
  agent_churn.validate("agent");
}

AgentSystem::AgentSystem(sim::Engine& engine,
                         const pace::ApplicationCatalogue& catalogue,
                         SystemConfig config,
                         metrics::MetricsCollector* collector)
    : engine_(engine),
      config_(std::move(config)),
      predictions_(grid_predictions(catalogue, config_.resources)) {
  build(catalogue, collector);
}

void AgentSystem::build(const pace::ApplicationCatalogue& catalogue,
                        metrics::MetricsCollector* collector) {
  config_.validate();
  network_ = std::make_unique<sim::Network>(engine_, kNetworkLatency,
                                            config_.fault);

  Rng seeder(config_.seed);
  int heads = 0;
  for (std::size_t i = 0; i < config_.resources.size(); ++i) {
    const ResourceSpec& spec = config_.resources[i];
    GRIDLB_REQUIRE(!spec.name.empty(), "resource needs a name");
    GRIDLB_REQUIRE(
        spec.parent < static_cast<int>(i),
        "parents must precede children in the resource list: " + spec.name);
    if (spec.parent < 0) {
      ++heads;
      head_index_ = i;
    }

    const AgentId id(i + 1);
    if (collector != nullptr) {
      collector->add_resource(id, spec.name, spec.node_count);
    }

    sched::LocalScheduler::Config scheduler_config;
    scheduler_config.resource_id = id;
    scheduler_config.resource = pace::ResourceModel::of(spec.hardware);
    scheduler_config.node_count = spec.node_count;
    scheduler_config.policy = config_.policy;
    scheduler_config.fifo_objective = config_.fifo_objective;
    scheduler_config.ga = config_.ga;
    scheduler_config.seed = seeder.next_u64();
    scheduler_config.prediction_error = config_.prediction_error;
    const std::size_t agent_index = i;
    schedulers_.push_back(std::make_unique<sched::LocalScheduler>(
        engine_, predictions_, std::move(scheduler_config),
        [this, collector, agent_index](const sched::CompletionRecord& record) {
          if (collector != nullptr) collector->record(record);
          // The agent may not exist yet while the system is being built,
          // but completions only fire once the simulation runs.
          if (agent_index < agents_.size()) {
            agents_[agent_index]->on_task_completed(record);
          }
        }));

    agents_.push_back(std::make_unique<Agent>(
        engine_, *network_, predictions_, catalogue, config_,
        AgentConfig{.id = id,
                    .name = spec.name,
                    .address = spec.name + ".gridlb.sim",
                    .port = 1000 + static_cast<int>(i)},
        *schedulers_.back()));
    agents_.back()->set_drop_sink([this](TaskId) { ++dropped_count_; });
  }
  GRIDLB_REQUIRE(heads == 1, "the hierarchy must have exactly one head");

  if (config_.churn.enabled) {
    Rng churn_seeder(kNodeChurnSeed);
    for (std::size_t i = 0; i < schedulers_.size(); ++i) {
      monitors_.push_back(std::make_unique<sched::ResourceMonitor>(
          engine_, *schedulers_[i],
          sched::churn_script(config_.churn, config_.resources[i].node_count,
                              churn_seeder.next_u64()),
          config_.monitor_poll_period));
    }
  }

  for (std::size_t i = 0; i < config_.resources.size(); ++i) {
    const int parent = config_.resources[i].parent;
    if (parent < 0) continue;
    agents_[i]->set_parent(agents_[static_cast<std::size_t>(parent)].get());
    agents_[static_cast<std::size_t>(parent)]->add_child(agents_[i].get());
  }

  if (config_.agent_churn.enabled) {
    // Drawn up front, so the crashes depend only on the churn seed (never
    // on simulation events).
    for (const sched::ChurnEvent& event : sched::churn_script(
             config_.agent_churn, static_cast<int>(agents_.size()),
             kAgentChurnSeed, static_cast<int>(head_index_))) {
      const auto i = static_cast<std::size_t>(event.unit);
      if (event.up) {
        engine_.schedule_at(event.at, [this, i]() { agents_[i]->restart(); });
      } else {
        engine_.schedule_at(event.at, [this, i]() { crash_agent(i); });
      }
    }
  }
}

void AgentSystem::crash_agent(std::size_t index) {
  const std::vector<TaskId> stranded = agents_[index]->crash();
  for (const TaskId task : stranded) {
    if (stranded_sink_) stranded_sink_(task);
  }
}

void AgentSystem::start() {
  for (const auto& agent : agents_) agent->start();
  for (const auto& monitor : monitors_) monitor->start();
}

Agent& AgentSystem::agent(std::size_t index) {
  GRIDLB_REQUIRE(index < agents_.size(), "agent index out of range");
  return *agents_[index];
}

const Agent& AgentSystem::agent(std::size_t index) const {
  GRIDLB_REQUIRE(index < agents_.size(), "agent index out of range");
  return *agents_[index];
}

Agent* AgentSystem::find_agent(const std::string& name) {
  for (const auto& agent : agents_) {
    if (agent->name() == name) return agent.get();
  }
  return nullptr;
}

Agent& AgentSystem::agent_named(const std::string& name) {
  Agent* agent = find_agent(name);
  GRIDLB_REQUIRE(agent != nullptr, "unknown agent name: " + name);
  return *agent;
}

}  // namespace gridlb::agents
