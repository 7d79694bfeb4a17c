// Service information documents (paper Fig. 5).
//
// A local scheduler periodically publishes a snapshot of its resource to
// its agent, which advertises it through the hierarchy:
//
//   <agentgrid type="service">
//     <agent>  <address>…</address> <port>…</port> </agent>
//     <local>  <address>…</address> <port>…</port>
//              <type>SunUltra10</type> <nproc>16</nproc>
//              <environment>mpi</environment> …
//              <freetime>…</freetime> </local>
//   </agentgrid>
//
// One deviation from Fig. 5: the paper encodes freetime as a calendar date
// string ("Sun Nov 15 04:43:10 2001"); in simulation the natural epoch is
// the virtual clock, so freetime is serialised as decimal sim-seconds.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "xml/xml.hpp"

namespace gridlb::agents {

struct ServiceInfo {
  // Identity of the owning agent (address/port tuple, as in Fig. 5).
  std::string agent_address;
  int agent_port = 0;
  // Identity and description of the local grid resource.
  std::string local_address;
  int local_port = 0;
  std::string hardware_type;  ///< e.g. "SunUltra10"
  int nproc = 0;
  std::vector<std::string> environments;  ///< "mpi", "pvm", "test"
  /// Earliest (approximate) absolute time the resource's processors become
  /// available for more tasks — the advertised GA makespan.
  SimTime freetime = 0.0;

  bool operator==(const ServiceInfo&) const = default;
};

/// Writes the Fig. 5 document; a relay stamps its `agentid` on the written
/// bytes (xml::stamp_root).
[[nodiscard]] std::string to_xml(const ServiceInfo& info);

/// Reads the rest of a Fig. 5 document whose root start tag `document` has
/// read, through its end: every child `to_xml` writes, in its order, with
/// any number of <environment> leaves, each leaf's text verbatim.  Throws
/// xml::ParseError on anything `to_xml` cannot write, and AssertionError on
/// a wrong type or a malformed number.
[[nodiscard]] ServiceInfo service_info_from_xml(xml::Reader& document);
[[nodiscard]] ServiceInfo service_info_from_xml(const std::string& document);

}  // namespace gridlb::agents
