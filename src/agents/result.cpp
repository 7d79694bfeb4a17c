#include "agents/result.hpp"

#include "agents/numbers.hpp"
#include "xml/xml.hpp"

namespace gridlb::agents {

std::string to_xml(const ExecutionResult& result) {
  xml::Writer document;
  document.open("agentgrid");
  document.attribute("type", "result");
  document.attribute("taskid", NumberText(result.task.value()).view());

  document.open("application");
  document.leaf("name", result.app_name);
  document.close();

  document.open("execution");
  document.leaf("resource", result.resource_name);
  document.leaf("start", NumberText(result.start).view());
  document.leaf("completion", NumberText(result.completion).view());
  document.leaf("deadline", NumberText(result.deadline).view());
  document.close();

  document.leaf("email", result.email);
  document.close();
  return std::move(document).finish();
}

}  // namespace gridlb::agents
