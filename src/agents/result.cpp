#include "agents/result.hpp"

#include "agents/numbers.hpp"

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

}  // namespace gridlb::agents
