#include "agents/result.hpp"

#include "agents/numbers.hpp"
#include "common/assert.hpp"

namespace gridlb::agents {

xml::Element to_document(const ExecutionResult& result) {
  xml::Element root("agentgrid");
  root.set_attribute("type", "result");
  root.set_attribute("taskid", NumberText(result.task.value()).view());

  xml::Element& application = root.add_child("application");
  application.add_child_with_text("name", result.app_name);

  xml::Element& execution = root.add_child("execution");
  execution.add_child_with_text("resource", result.resource_name);
  execution.add_child_with_text("start", NumberText(result.start).view());
  execution.add_child_with_text("completion",
                                NumberText(result.completion).view());
  execution.add_child_with_text("deadline",
                                NumberText(result.deadline).view());

  root.add_child_with_text("email", result.email);
  return root;
}

std::string to_xml(const ExecutionResult& result) {
  return xml::write(to_document(result));
}

ExecutionResult result_from_xml(std::string_view document) {
  return result_from_xml(*xml::parse(document));
}

ExecutionResult result_from_xml(const xml::Element& root) {
  GRIDLB_REQUIRE(root.name() == "agentgrid", "not an agentgrid document");
  GRIDLB_REQUIRE(root.attribute("type") == "result",
                 "not a result document");

  ExecutionResult result;
  if (const auto taskid = root.attribute("taskid")) {
    result.task = TaskId(read_number<std::uint64_t>(*taskid, "taskid"));
  }
  const xml::Element* application = root.child("application");
  GRIDLB_REQUIRE(application != nullptr, "result lacks <application>");
  result.app_name = application->child_text("name");

  const xml::Element* execution = root.child("execution");
  GRIDLB_REQUIRE(execution != nullptr, "result lacks <execution>");
  result.resource_name = execution->child_text("resource");
  result.start = read_number<double>(execution->child_text("start"), "start");
  result.completion =
      read_number<double>(execution->child_text("completion"), "completion");
  result.deadline =
      read_number<double>(execution->child_text("deadline"), "deadline");

  result.email = root.child_text("email");
  return result;
}

}  // namespace gridlb::agents
