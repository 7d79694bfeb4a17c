#include "agents/request.hpp"

#include "agents/numbers.hpp"
#include "common/assert.hpp"

namespace gridlb::agents {

std::string to_xml(const Request& request) {
  xml::Writer document;
  document.open("agentgrid");
  document.attribute("type", "request");
  document.attribute("taskid", NumberText(request.task.value()).view());
  if (request.origin) {
    document.attribute("origin", NumberText(*request.origin).view());
  }
  if (!request.visited.empty()) {
    std::string visited;
    for (const AgentId agent : request.visited) {
      if (!visited.empty()) visited += ',';
      visited += NumberText(agent.value()).view();
    }
    document.attribute("visited", visited);
  }

  document.open("application");
  document.leaf("name", request.app_name);
  document.open("binary");
  document.leaf("file", request.binary_file);
  document.leaf("inputfile", request.input_file);
  document.close();
  document.open("performance");
  document.leaf("datatype", "pacemodel");
  document.leaf("modelname", request.model_name);
  document.close();
  document.close();

  document.open("requirement");
  document.leaf("environment", request.environment);
  document.leaf("deadline", NumberText(request.deadline).view());
  document.close();

  document.leaf("email", request.email);
  document.close();
  return std::move(document).finish();
}

Request request_from_xml(std::string_view document) {
  return request_from_xml(*xml::parse(document));
}

Request request_from_xml(const xml::Element& root) {
  GRIDLB_REQUIRE(root.name() == "agentgrid", "not an agentgrid document");
  GRIDLB_REQUIRE(root.attribute("type") == "request",
                 "not a request document");

  Request request;
  if (const auto taskid = root.attribute("taskid")) {
    request.task = TaskId(read_number<std::uint64_t>(*taskid, "taskid"));
  }
  if (const auto origin = root.attribute("origin")) {
    request.origin = read_number<std::uint32_t>(*origin, "origin");
  }
  if (const auto visited = root.attribute("visited")) {
    for (std::string_view rest = *visited;;) {
      const auto comma = rest.find(',');
      request.visited.emplace_back(
          read_number<std::uint64_t>(rest.substr(0, comma), "visited"));
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }

  const xml::Element* application = root.child("application");
  GRIDLB_REQUIRE(application != nullptr, "request lacks <application>");
  request.app_name = application->child_text("name");
  if (const xml::Element* binary = application->child("binary")) {
    request.binary_file = binary->child_text("file");
    request.input_file = binary->child_text("inputfile");
  }
  if (const xml::Element* performance = application->child("performance")) {
    GRIDLB_REQUIRE(performance->child_text("datatype") == "pacemodel",
                   "unsupported performance data type");
    request.model_name = performance->child_text("modelname");
  }

  const xml::Element* requirement = root.child("requirement");
  GRIDLB_REQUIRE(requirement != nullptr, "request lacks <requirement>");
  request.environment = requirement->child_text("environment");
  const std::string_view deadline_text = requirement->child_text("deadline");
  GRIDLB_REQUIRE(!deadline_text.empty(), "request lacks a deadline");
  request.deadline = read_number<double>(deadline_text, "deadline");

  request.email = root.child_text("email");
  return request;
}

}  // namespace gridlb::agents
