#include "agents/act.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace gridlb::agents {

void CapabilityTable::upsert(AgentId agent, ServiceInfo info, SimTime now,
                             AgentId via) {
  GRIDLB_REQUIRE(agent.valid(), "ACT entries need a valid agent id");
  GRIDLB_REQUIRE(via.valid(), "ACT entries need a valid via agent");
  for (auto& entry : entries_) {
    if (entry.agent == agent) {
      entry.via = via;
      entry.info = std::move(info);
      entry.updated_at = now;
      return;
    }
  }
  entries_.push_back(Entry{agent, via, std::move(info), now});
}

void CapabilityTable::advance_freetime(AgentId agent, SimTime now,
                                       double seconds) {
  GRIDLB_REQUIRE(seconds >= 0.0, "cannot rewind a freetime estimate");
  for (auto& entry : entries_) {
    if (entry.agent == agent) {
      entry.info.freetime = std::max(entry.info.freetime, now) + seconds;
      return;
    }
  }
}

std::size_t CapabilityTable::erase_involving(AgentId agent) {
  const auto first = std::remove_if(
      entries_.begin(), entries_.end(), [agent](const Entry& entry) {
        return entry.agent == agent || entry.via == agent;
      });
  const auto removed = static_cast<std::size_t>(entries_.end() - first);
  entries_.erase(first, entries_.end());
  return removed;
}

const CapabilityTable::Entry* CapabilityTable::find(AgentId agent) const {
  for (const auto& entry : entries_) {
    if (entry.agent == agent) return &entry;
  }
  return nullptr;
}

}  // namespace gridlb::agents
