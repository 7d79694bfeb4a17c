#include "agents/service_info.hpp"

#include <charconv>

#include "common/assert.hpp"

namespace gridlb::agents {

namespace {

int parse_int(const std::string& text, const char* what) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  GRIDLB_REQUIRE(ec == std::errc{} && ptr == text.data() + text.size(),
                 std::string("malformed integer in ") + what + ": " + text);
  return value;
}

double parse_double(const std::string& text, const char* what) {
  GRIDLB_REQUIRE(!text.empty(), std::string(what) + " is empty");
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    GRIDLB_REQUIRE(false,
                   std::string("malformed number in ") + what + ": " + text);
  }
  GRIDLB_REQUIRE(consumed == text.size(),
                 std::string("trailing junk in ") + what + ": " + text);
  return value;
}

}  // namespace

xml::Element to_document(const ServiceInfo& info) {
  xml::Element root("agentgrid");
  root.set_attribute("type", "service");

  xml::Element& agent = root.add_child("agent");
  agent.add_child_with_text("address", info.agent_address);
  agent.add_child_with_text("port", std::to_string(info.agent_port));

  xml::Element& local = root.add_child("local");
  local.add_child_with_text("address", info.local_address);
  local.add_child_with_text("port", std::to_string(info.local_port));
  local.add_child_with_text("type", info.hardware_type);
  local.add_child_with_text("nproc", std::to_string(info.nproc));
  for (const auto& environment : info.environments) {
    local.add_child_with_text("environment", environment);
  }
  local.add_child_with_text("freetime", std::to_string(info.freetime));

  return root;
}

std::string to_xml(const ServiceInfo& info) {
  return xml::write(to_document(info));
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
  info.agent_port = parse_int(agent->child_text("port"), "agent port");

  const xml::Element* local = root.child("local");
  GRIDLB_REQUIRE(local != nullptr, "service document lacks <local>");
  info.local_address = local->child_text("address");
  info.local_port = parse_int(local->child_text("port"), "local port");
  info.hardware_type = local->child_text("type");
  info.nproc = parse_int(local->child_text("nproc"), "nproc");
  for (const xml::Element* environment : local->children_named("environment")) {
    info.environments.push_back(environment->text());
  }
  info.freetime = parse_double(local->child_text("freetime"), "freetime");
  return info;
}

}  // namespace gridlb::agents
