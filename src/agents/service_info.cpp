#include "agents/service_info.hpp"

#include "agents/numbers.hpp"
#include "common/assert.hpp"

namespace gridlb::agents {

std::string to_xml(const ServiceInfo& info) {
  xml::Writer document;
  document.open("agentgrid");
  document.attribute("type", "service");

  document.open("agent");
  document.leaf("address", info.agent_address);
  document.leaf("port", NumberText(info.agent_port).view());
  document.close();

  document.open("local");
  document.leaf("address", info.local_address);
  document.leaf("port", NumberText(info.local_port).view());
  document.leaf("type", info.hardware_type);
  document.leaf("nproc", NumberText(info.nproc).view());
  for (const auto& environment : info.environments) {
    document.leaf("environment", environment);
  }
  document.leaf("freetime", NumberText(info.freetime).view());
  document.close();

  document.close();
  return std::move(document).finish();
}

ServiceInfo service_info_from_xml(std::string_view document) {
  return service_info_from_xml(*xml::parse(document));
}

ServiceInfo service_info_from_xml(const xml::Element& root) {
  GRIDLB_REQUIRE(root.name() == "agentgrid", "not an agentgrid document");
  GRIDLB_REQUIRE(root.attribute("type") == "service",
                 "not a service document");

  ServiceInfo info;
  const xml::Element* agent = root.child("agent");
  GRIDLB_REQUIRE(agent != nullptr, "service document lacks <agent>");
  info.agent_address = agent->child_text("address");
  info.agent_port = read_number<int>(agent->child_text("port"), "agent port");

  const xml::Element* local = root.child("local");
  GRIDLB_REQUIRE(local != nullptr, "service document lacks <local>");
  info.local_address = local->child_text("address");
  info.local_port = read_number<int>(local->child_text("port"), "local port");
  info.hardware_type = local->child_text("type");
  info.nproc = read_number<int>(local->child_text("nproc"), "nproc");
  for (const xml::Element& environment :
       local->children_named("environment")) {
    info.environments.emplace_back(environment.text());
  }
  info.freetime =
      read_number<double>(local->child_text("freetime"), "freetime");
  return info;
}

}  // namespace gridlb::agents
