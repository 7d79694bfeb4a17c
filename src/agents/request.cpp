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

  // The first child of each name counts; later ones and unknown ones are
  // checked and skipped.
  bool application = false;
  bool binary = false;
  bool performance = false;
  bool requirement = false;
  Leaf name, file, inputfile, datatype, modelname, environment, deadline,
      email;
  while (document.next_child()) {
    const std::string_view child = document.name();
    if (child == "application" && !application) {
      application = true;
      while (document.next_child()) {
        const std::string_view part = document.name();
        if (part == "name") {
          read_leaf(document, name);
        } else if (part == "binary" && !binary) {
          binary = true;
          read_leaves(document, {{"file", &file}, {"inputfile", &inputfile}});
        } else if (part == "performance" && !performance) {
          performance = true;
          read_leaves(document,
                      {{"datatype", &datatype}, {"modelname", &modelname}});
        } else {
          document.skip();
        }
      }
    } else if (child == "requirement" && !requirement) {
      requirement = true;
      read_leaves(document,
                  {{"environment", &environment}, {"deadline", &deadline}});
    } else if (child == "email") {
      read_leaf(document, email);
    } else {
      document.skip();
    }
  }
  document.finish();

  GRIDLB_REQUIRE(application, "request lacks <application>");
  request.app_name = name.value_or("");
  request.binary_file = file.value_or("");
  request.input_file = inputfile.value_or("");
  GRIDLB_REQUIRE(!performance || datatype == "pacemodel",
                 "unsupported performance data type");
  request.model_name = modelname.value_or("");
  GRIDLB_REQUIRE(requirement, "request lacks <requirement>");
  request.environment = environment.value_or("");
  GRIDLB_REQUIRE(!deadline.value_or("").empty(), "request lacks a deadline");
  request.deadline = read_number<double>(*deadline, "deadline");
  request.email = email.value_or("");
  return request;
}

Request request_from_xml(const std::string& document) {
  xml::Reader reader(document);
  return request_from_xml(reader);
}

}  // namespace gridlb::agents
