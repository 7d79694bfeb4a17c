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

Request request_from_xml(xml::Reader& document) {
  GRIDLB_REQUIRE(document.name() == "agentgrid", "not an agentgrid document");
  GRIDLB_REQUIRE(document.attribute("type") == "request",
                 "not a request document");

  Request request;
  if (const auto taskid = document.attribute("taskid")) {
    request.task = TaskId(read_number<std::uint64_t>(*taskid, "taskid"));
  }
  if (const auto origin = document.attribute("origin")) {
    request.origin = read_number<std::uint32_t>(*origin, "origin");
  }
  if (const auto visited = document.attribute("visited")) {
    for (std::string_view rest = *visited;;) {
      const auto comma = rest.find(',');
      request.visited.emplace_back(
          read_number<std::uint64_t>(rest.substr(0, comma), "visited"));
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }

  document.open("application");
  request.app_name = document.leaf("name");
  document.open("binary");
  request.binary_file = document.leaf("file");
  request.input_file = document.leaf("inputfile");
  document.close();
  document.open("performance");
  GRIDLB_REQUIRE(document.leaf("datatype") == "pacemodel",
                 "unsupported performance data type");
  request.model_name = document.leaf("modelname");
  document.close();
  document.close();

  document.open("requirement");
  request.environment = document.leaf("environment");
  request.deadline = read_number<double>(document.leaf("deadline"), "deadline");
  document.close();

  request.email = document.leaf("email");
  document.close();
  document.finish();
  return request;
}

Request request_from_xml(const std::string& document) {
  xml::Reader reader(document);
  return request_from_xml(reader);
}

}  // namespace gridlb::agents
