// Request documents (paper Fig. 6).
//
// A grid user submits, through the portal, the application's identity
// (binary + PACE performance model), its requirements (execution
// environment and deadline) and contact information:
//
//   <agentgrid type="request">
//     <application>
//       <name>sweep3d</name>
//       <binary> <file>…</file> <inputfile>…</inputfile> </binary>
//       <performance> <datatype>pacemodel</datatype>
//                     <modelname>…</modelname> </performance>
//     </application>
//     <requirement> <environment>test</environment>
//                   <deadline>…</deadline> </requirement>
//     <email>…</email>
//   </agentgrid>
//
// Two simulation-level extensions travel as attributes of the root
// element (invisible to the Fig. 6 schema): `taskid` identifies the
// request end-to-end, and `visited` lists agents the discovery process has
// already tried so a request is never bounced in a cycle.  As with
// freetime, the deadline is serialised as decimal sim-seconds rather than
// a calendar date.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "xml/xml.hpp"

namespace gridlb::agents {

struct Request {
  TaskId task;
  // <application>
  std::string app_name;
  std::string binary_file;
  std::string input_file;
  std::string model_name;  ///< PACE application model reference
  // <requirement>
  std::string environment = "test";
  SimTime deadline = 0.0;  ///< absolute execution deadline δ_r
  // contact
  std::string email;
  // discovery bookkeeping (root-element attributes)
  std::vector<AgentId> visited;
  /// Network endpoint the execution result is posted back to (the paper
  /// emails the user; the simulation replies to the originating portal).
  /// Travels as the `origin` root attribute; nullopt = fire-and-forget.
  std::optional<std::uint32_t> origin;

  bool operator==(const Request&) const = default;
};

/// Writes the Fig. 6 document; the transport stamps its `final` and
/// `msgid` attributes on the written bytes (xml::stamp_root).
[[nodiscard]] std::string to_xml(const Request& request);

/// Reads the rest of a request document whose root start tag `document`
/// has read, through its end: the first child of each name counts, in any
/// order.  Throws xml::ParseError / AssertionError on a malformed or
/// incomplete one.
[[nodiscard]] Request request_from_xml(xml::Reader& document);
[[nodiscard]] Request request_from_xml(const std::string& document);

}  // namespace gridlb::agents
