// Execution-result documents.
//
// "The task execution results are sent directly back to the user from
// where the request originates" (paper §2.2); the case-study portal posts
// them to the user's email address.  In simulation the executing agent
// composes a result document and sends it over the network to the
// request's originating endpoint (the portal), which counts it:
//
//   <agentgrid type="result" taskid="…">
//     <application> <name>sweep3d</name> </application>
//     <execution>
//       <resource>S3</resource>
//       <start>…</start> <completion>…</completion> <deadline>…</deadline>
//     </execution>
//     <email>…</email>
//   </agentgrid>
#pragma once

#include <string>

#include "common/types.hpp"

namespace gridlb::agents {

struct ExecutionResult {
  TaskId task;
  std::string app_name;
  std::string resource_name;  ///< executing agent's name, e.g. "S3"
  SimTime start = 0.0;
  SimTime completion = 0.0;  ///< η_j
  SimTime deadline = 0.0;    ///< δ_j
  std::string email;

  bool operator==(const ExecutionResult&) const = default;
};

/// Writes the result document; a reliable send stamps its `msgid` on the
/// written bytes (xml::stamp_root).
[[nodiscard]] std::string to_xml(const ExecutionResult& result);

}  // namespace gridlb::agents
