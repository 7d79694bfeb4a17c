#include "agents/agent_system.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace

void SystemConfig::validate() const {
  fault.validate();
  GRIDLB_REQUIRE(std::isfinite(pull_period) && pull_period >= 0.0,
                 "pull period must be finite and >= 0 (0 = no advertisement "
                 "pulls)");
  for (const ResourceSpec& spec : resources) {
    sched::LocalScheduler::Config scheduler;
    scheduler.node_count = spec.node_count;
    scheduler.prediction_error = prediction_error;
    scheduler.validate();
  }
  if (churn.enabled) {
    GRIDLB_REQUIRE(churn.mtbf > 0.0 && churn.mttr > 0.0,
                   "node churn needs positive mtbf and mttr");
  }
  if (agent_churn.enabled) {
    GRIDLB_REQUIRE(agent_churn.mtbf > 0.0 && agent_churn.mttr > 0.0,
                   "agent churn needs positive mtbf and mttr");
  }
}

AgentSystem::AgentSystem(sim::ShardedEngine& sharded,
                         const pace::ApplicationCatalogue& catalogue,
                         SystemConfig config,
                         metrics::MetricsCollector* collector)
    : sharded_(sharded),
      config_(std::move(config)),
      predictions_(grid_predictions(catalogue, config_.resources)) {
  build(catalogue, collector);
}

std::vector<std::size_t> AgentSystem::assign_shards(
    const std::vector<ResourceSpec>& resources, std::size_t shards) {
  const std::size_t n = resources.size();
  std::vector<std::size_t> shard_of(n, 0);
  if (n == 0) return shard_of;
  std::vector<std::vector<std::size_t>> children(n);
  std::size_t root = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (resources[i].parent >= 0) {
      children[static_cast<std::size_t>(resources[i].parent)].push_back(i);
    } else {
      root = i;
    }
  }
  // DFS preorder keeps each subtree contiguous, so cutting the order into
  // equal chunks pins whole subtrees (parent/child message chatter)
  // together wherever the chunk boundaries allow.
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> stack{root};
  while (!stack.empty()) {
    const std::size_t index = stack.back();
    stack.pop_back();
    order.push_back(index);
    for (auto it = children[index].rbegin(); it != children[index].rend();
         ++it) {
      stack.push_back(*it);
    }
  }
  GRIDLB_ASSERT(order.size() == n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    shard_of[order[pos]] = pos * shards / n;
  }
  return shard_of;
}

std::size_t AgentSystem::shard_of(std::size_t index) const {
  GRIDLB_REQUIRE(index < shard_assignment_.size(), "agent index out of range");
  return shard_assignment_[index];
}

void AgentSystem::build(const pace::ApplicationCatalogue& catalogue,
                        metrics::MetricsCollector* collector) {
  config_.validate();
  const std::size_t shards = sharded_.shard_count();
  shard_assignment_ = assign_shards(config_.resources, shards);

  network_ = std::make_unique<sim::Network>(sharded_, config_.network_latency,
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

    sim::Engine& agent_engine = engine_for(i);
    network_->set_registration_shard(shard_assignment_[i]);

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
        agent_engine, predictions_, std::move(scheduler_config),
        [this, collector, agent_index](const sched::CompletionRecord& record) {
          if (collector != nullptr) collector->record(record);
          ++completed_count_;
          // The agent may not exist yet while the system is being built,
          // but completions only fire once the simulation runs.
          if (agent_index < agents_.size()) {
            agents_[agent_index]->on_task_completed(record);
          }
        }));

    agents_.push_back(std::make_unique<Agent>(
        agent_engine, *network_, predictions_, catalogue, config_,
        AgentConfig{.id = id,
                    .name = spec.name,
                    .address = spec.name + ".gridlb.sim",
                    .port = 1000 + static_cast<int>(i)},
        *schedulers_.back()));
    agents_.back()->set_drop_sink([this](TaskId) { ++dropped_count_; });
  }
  GRIDLB_REQUIRE(heads == 1, "the hierarchy must have exactly one head");

  if (config_.churn.enabled) {
    Rng churn_seeder(config_.churn.seed);
    for (std::size_t i = 0; i < schedulers_.size(); ++i) {
      const int nodes = config_.resources[i].node_count;
      availability_.push_back(
          std::make_unique<sched::NodeAvailability>(nodes));
      sched::schedule_availability(
          engine_for(i), *availability_.back(),
          sched::random_availability_script(nodes, config_.churn.horizon,
                                            config_.churn.mtbf,
                                            config_.churn.mttr,
                                            churn_seeder.next_u64()));
      monitors_.push_back(std::make_unique<sched::ResourceMonitor>(
          engine_for(i), *schedulers_[i], *availability_.back(),
          config_.churn.poll_period));
    }
  }

  for (std::size_t i = 0; i < config_.resources.size(); ++i) {
    const int parent = config_.resources[i].parent;
    if (parent < 0) continue;
    agents_[i]->set_parent(agents_[static_cast<std::size_t>(parent)].get());
    agents_[static_cast<std::size_t>(parent)]->add_child(agents_[i].get());
  }

  if (config_.agent_churn.enabled) schedule_agent_churn();
}

void AgentSystem::schedule_agent_churn() {
  const AgentChurnConfig& churn = config_.agent_churn;
  Rng rng(churn.seed);
  const auto exponential = [&rng](double mean) {
    // Inverse-CDF sampling; 1 − u avoids log(0).
    return -mean * std::log(1.0 - rng.next_double());
  };
  // Alternating up/down script per agent, fully drawn up-front so the
  // schedule depends only on the churn seed (never on simulation events).
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (churn.protect_head && i == head_index_) continue;
    SimTime t = 0.0;
    while (true) {
      t += exponential(churn.mtbf);
      if (t >= churn.horizon) break;
      engine_for(i).schedule_at(t, [this, i]() { crash_agent(i); });
      t += exponential(churn.mttr);
      engine_for(i).schedule_at(t, [this, i]() { agents_[i]->restart(); });
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
