// Agent Capability Table (ACT).
//
// Each agent maintains "a set of service information for the other agents
// in the system" — in this implementation, exactly its neighbours (upper
// and lower agents), refreshed by the advertisement process.  Entries are
// timestamped so staleness can be measured (the advertisement ablation).
#pragma once

#include <optional>
#include <vector>

#include "agents/service_info.hpp"
#include "common/types.hpp"

namespace gridlb::agents {

class CapabilityTable {
 public:
  struct Entry {
    AgentId agent;       ///< the resource the service information describes
    AgentId via;         ///< the neighbour that advertised it (routing hop)
    ServiceInfo info;
    SimTime updated_at = 0.0;
  };

  /// Inserts or refreshes the entry for `agent`.  `via` names the
  /// neighbour the advertisement arrived from; for a neighbour's own
  /// service, `via == agent`.
  void upsert(AgentId agent, ServiceInfo info, SimTime now, AgentId via);

  /// Optimistically advances the cached freetime of `agent` by `seconds`.
  ///
  /// Advertisements only refresh every pull period; without local
  /// bookkeeping an agent would dispatch every request inside one
  /// staleness window to the same "best" neighbour.  After forwarding a
  /// task, the sender bumps its own estimate of the target's backlog by
  /// the task's expected makespan contribution, so consecutive decisions
  /// spread load.  The next real advertisement overwrites the estimate.
  void advance_freetime(AgentId agent, SimTime now, double seconds);

  /// Entry for `agent`, if any advertisement has been received.
  [[nodiscard]] const Entry* find(AgentId agent) const;

  /// Removes every entry describing `agent` or routed through it — the
  /// reaction to a suspected-dead neighbour (retry budget exhausted).
  /// Returns the number of entries dropped.
  std::size_t erase_involving(AgentId agent);

  /// True when the entry is too old to trust: fault-tolerant discovery
  /// skips entries not refreshed within `max_age` seconds (`max_age <= 0`
  /// trusts everything, the pre-fault behaviour).
  [[nodiscard]] static bool expired(const Entry& entry, SimTime now,
                                    double max_age) {
    return max_age > 0.0 && now - entry.updated_at > max_age;
  }

  /// All entries, insertion order.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace gridlb::agents
