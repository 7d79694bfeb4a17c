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

ServiceInfo service_info_from_xml(const std::string& document) {
  xml::Reader reader(document);
  return service_info_from_xml(reader);
}

ServiceInfo service_info_from_xml(xml::Reader& document) {
  GRIDLB_REQUIRE(document.name() == "agentgrid", "not an agentgrid document");
  GRIDLB_REQUIRE(document.attribute("type") == "service",
                 "not a service document");

  ServiceInfo info;
  document.open("agent");
  info.agent_address = document.leaf("address");
  info.agent_port = read_number<int>(document.leaf("port"), "agent port");
  document.close();

  document.open("local");
  info.local_address = document.leaf("address");
  info.local_port = read_number<int>(document.leaf("port"), "local port");
  info.hardware_type = document.leaf("type");
  info.nproc = read_number<int>(document.leaf("nproc"), "nproc");
  while (document.next_is("environment")) {
    info.environments.emplace_back(document.leaf("environment"));
  }
  info.freetime = read_number<double>(document.leaf("freetime"), "freetime");
  document.close();

  document.close();
  document.finish();
  return info;
}

}  // namespace gridlb::agents
