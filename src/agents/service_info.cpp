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

  // The first child of each name counts, except that every <environment>
  // does; later and unknown ones are checked and skipped.
  ServiceInfo info;
  bool agent = false;
  bool local = false;
  Leaf agent_address, agent_port, local_address, local_port, type, nproc,
      freetime;
  while (document.next_child()) {
    const std::string_view child = document.name();
    if (child == "agent" && !agent) {
      agent = true;
      read_leaves(document,
                  {{"address", &agent_address}, {"port", &agent_port}});
    } else if (child == "local" && !local) {
      local = true;
      while (document.next_child()) {
        const std::string_view leaf = document.name();
        if (leaf == "environment") {
          info.environments.emplace_back(document.text());
        } else if (leaf == "address") {
          read_leaf(document, local_address);
        } else if (leaf == "port") {
          read_leaf(document, local_port);
        } else if (leaf == "type") {
          read_leaf(document, type);
        } else if (leaf == "nproc") {
          read_leaf(document, nproc);
        } else if (leaf == "freetime") {
          read_leaf(document, freetime);
        } else {
          document.skip();
        }
      }
    } else {
      document.skip();
    }
  }
  document.finish();

  GRIDLB_REQUIRE(agent, "service document lacks <agent>");
  info.agent_address = agent_address.value_or("");
  info.agent_port = read_number<int>(agent_port.value_or(""), "agent port");
  GRIDLB_REQUIRE(local, "service document lacks <local>");
  info.local_address = local_address.value_or("");
  info.local_port = read_number<int>(local_port.value_or(""), "local port");
  info.hardware_type = type.value_or("");
  info.nproc = read_number<int>(nproc.value_or(""), "nproc");
  info.freetime = read_number<double>(freetime.value_or(""), "freetime");
  return info;
}

}  // namespace gridlb::agents
