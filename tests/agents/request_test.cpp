#include "agents/request.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "xml/xml.hpp"

namespace gridlb::agents {
namespace {

Request example() {
  // The Fig. 6 example: a sweep3d execution request.
  Request request;
  request.task = TaskId(42);
  request.app_name = "sweep3d";
  request.binary_file = "/dcs/junwei/agentgrid/binary/sweep3d";
  request.input_file = "/dcs/junwei/agentgrid/binary/input.50";
  request.model_name = "/dcs/junwei/agentgrid/model/sweep3d";
  request.environment = "test";
  request.deadline = 437.25;
  request.email = "junwei@dcs.warwick.ac.uk";
  return request;
}

TEST(Request, RoundTrip) {
  const Request original = example();
  EXPECT_EQ(request_from_xml(to_xml(original)), original);
}

TEST(Request, RoundTripWithVisitedAgents) {
  Request request = example();
  request.visited = {AgentId(3), AgentId(1), AgentId(7)};
  EXPECT_EQ(request_from_xml(to_xml(request)), request);
}

TEST(Request, DocumentShapeMatchesFig6) {
  const std::string document = to_xml(example());
  xml::Reader doc(document);
  EXPECT_EQ(doc.name(), "agentgrid");
  EXPECT_EQ(doc.attribute("type"), "request");
  doc.open("application");
  EXPECT_EQ(doc.leaf("name"), "sweep3d");
  doc.open("binary");
  EXPECT_EQ(doc.leaf("file"), "/dcs/junwei/agentgrid/binary/sweep3d");
  EXPECT_EQ(doc.leaf("inputfile"), "/dcs/junwei/agentgrid/binary/input.50");
  doc.close();
  doc.open("performance");
  EXPECT_EQ(doc.leaf("datatype"), "pacemodel");
  EXPECT_EQ(doc.leaf("modelname"), "/dcs/junwei/agentgrid/model/sweep3d");
  doc.close();
  doc.close();
  doc.open("requirement");
  EXPECT_EQ(doc.leaf("environment"), "test");
  EXPECT_EQ(doc.leaf("deadline"), "437.250000");
  doc.close();
  EXPECT_EQ(doc.leaf("email"), "junwei@dcs.warwick.ac.uk");
  doc.finish();
}

TEST(Request, LeafTextRoundTripsVerbatim) {
  // Leading and trailing spaces survive: " test" is not the "test"
  // environment a resource offers.
  Request request = example();
  request.app_name = "   ";
  request.binary_file = " /gridlb/binary/cpi";
  request.input_file = "/gridlb/binary/cpi.input\n";
  request.model_name = "\t/gridlb/model/cpi ";
  request.environment = " test";
  request.email = " user@gridlb.sim ";
  const Request parsed = request_from_xml(to_xml(request));
  EXPECT_EQ(parsed.environment, " test");
  EXPECT_EQ(parsed.email, " user@gridlb.sim ");
  EXPECT_EQ(parsed, request);
}

TEST(Request, RejectsChildrenOutOfOrderOrRepeated) {
  // Children in another order, unknown, repeated or split by a comment:
  // what a reader that dispatched by name once read, keeping the first.
  EXPECT_THROW(
      request_from_xml(
          "<agentgrid type=\"request\"><email>a&amp;b</email>"
          "<requirement><deadline>2.5</deadline><unknown><x/></unknown>"
          "<environment>mpi</environment><deadline>9</deadline>"
          "</requirement>"
          "<application><performance><modelname>m</modelname>"
          "<datatype>pacemodel</datatype></performance>"
          "<name>n<!-- split -->ame</name><name>later</name></application>"
          "<application><name>second</name></application><email>e</email>"
          "</agentgrid>"),
      xml::ParseError);
}

/// The example document with the first `from` replaced by `to`.
std::string example_with(const std::string& from, const std::string& to) {
  Request request = example();
  request.visited = {AgentId(3), AgentId(1)};
  std::string document = to_xml(request);
  const auto at = document.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return document.replace(at, from.size(), to);
}

TEST(Request, RejectsWhatToXmlCannotWrite) {
  // Each is one edit of a written document, and a ParseError.
  const std::string email = "  <email>junwei@dcs.warwick.ac.uk</email>\n";
  const struct {
    const char* what;
    std::string document;
  } cases[] = {
      {"a declaration",
       "<?xml version=\"1.0\"?>\n" + to_xml(example())},
      {"a comment", example_with("<application>",
                                 "<!-- note --><application>")},
      {"a single-quoted value",
       example_with("type=\"request\"", "type='request'")},
      {"text beside child elements",
       example_with("<application>", "note<application>")},
      {"text after the last child",
       example_with("</agentgrid>", "note</agentgrid>")},
      {"a child out of order",
       example_with("  <application>", email + "  <application>")},
      {"a missing child", example_with(email, "")},
      {"a missing inner child",
       example_with("    <name>sweep3d</name>\n", "")},
      {"a repeated child", example_with(email, email + email)},
      {"an unknown child",
       example_with("<requirement>", "<requirement><extra/>")},
  };
  for (const auto& [what, document] : cases) {
    EXPECT_THROW(request_from_xml(document), xml::ParseError)
        << what << "\n" << document;
  }
}

TEST(Request, RejectsMalformedBodyAfterTheFields) {
  // Every field is read before the bad bytes, and still the reader
  // checks the document to its end.
  EXPECT_THROW(request_from_xml(to_xml(example()) + "<trailing/>"),
               xml::ParseError);
  EXPECT_THROW(request_from_xml(example_with(
                   "</agentgrid>", "<junk>&bogus;</junk></agentgrid>")),
               xml::ParseError);
}

TEST(Request, EmailWithSpecialCharactersSurvives) {
  Request request = example();
  request.email = "a&b<c>@example.com";
  EXPECT_EQ(request_from_xml(to_xml(request)).email, request.email);
}

TEST(Request, RejectsWrongType) {
  EXPECT_THROW(request_from_xml("<agentgrid type=\"service\"/>"),
               AssertionError);
}

TEST(Request, RejectsMissingApplication) {
  EXPECT_THROW(request_from_xml("<agentgrid type=\"request\">"
                                "<requirement><deadline>1</deadline>"
                                "</requirement></agentgrid>"),
               xml::ParseError);
}

TEST(Request, RejectsMissingDeadline) {
  // A missing leaf is a ParseError, an empty one a malformed number.
  EXPECT_THROW(request_from_xml(example_with(
                   "    <deadline>437.250000</deadline>\n", "")),
               xml::ParseError);
  EXPECT_THROW(request_from_xml(example_with("<deadline>437.250000</deadline>",
                                             "<deadline/>")),
               AssertionError);
}

TEST(Request, RejectsNonPaceModelPerformanceData) {
  EXPECT_THROW(request_from_xml(example_with("<datatype>pacemodel</datatype>",
                                             "<datatype>trace</datatype>")),
               AssertionError);
}

TEST(Request, RejectsNegativeTaskId) {
  // Read through std::stoull, "-1" wrapped to task 18446744073709551615.
  EXPECT_THROW(
      request_from_xml(example_with("taskid=\"42\"", "taskid=\"-1\"")),
      AssertionError);
}

TEST(Request, RejectsMalformedTaskId) {
  for (const char* taskid : {"7junk", "x", "", "18446744073709551616"}) {
    const std::string attribute = "taskid=\"" + std::string(taskid) + "\"";
    EXPECT_THROW(request_from_xml(example_with("taskid=\"42\"", attribute)),
                 AssertionError)
        << taskid;
  }
}

TEST(Request, RejectsTrailingJunkInDeadline) {
  EXPECT_THROW(request_from_xml(example_with("<deadline>437.250000</deadline>",
                                             "<deadline>12.5abc</deadline>")),
               AssertionError);
}

TEST(Request, RejectsNonFiniteDeadline) {
  for (const char* deadline : {"nan", "inf", "-inf", "1e999"}) {
    EXPECT_THROW(request_from_xml(example_with(
                     "<deadline>437.250000</deadline>",
                     "<deadline>" + std::string(deadline) + "</deadline>")),
                 AssertionError)
        << deadline;
  }
}

TEST(Request, RejectsEmptyVisitedToken) {
  for (const char* visited : {"3,,1", "3,", ",1", ""}) {
    const std::string attribute =
        "visited=\"" + std::string(visited) + "\"";
    EXPECT_THROW(
        request_from_xml(example_with("visited=\"3,1\"", attribute)),
        AssertionError)
        << visited;
  }
  EXPECT_THROW(
      request_from_xml(example_with("visited=\"3,1\"", "visited=\"3,x\"")),
      AssertionError);
}

TEST(Request, RejectsOriginOutOfRange) {
  Request request = example();
  request.origin = 7;
  std::string document = to_xml(request);
  document.replace(document.find("origin=\"7\""), 10,
                   "origin=\"4294967296\"");
  EXPECT_THROW(request_from_xml(document), AssertionError);
}

TEST(Request, RejectsAMinimalDocument) {
  // A document without <binary>, <performance> and <email> is not one
  // to_xml writes; a request without a task id or visited agents is.
  EXPECT_THROW(request_from_xml("<agentgrid type=\"request\">"
                                "<application><name>fft</name></application>"
                                "<requirement><environment>mpi</environment>"
                                "<deadline>12.5</deadline></requirement>"
                                "</agentgrid>"),
               xml::ParseError);
  Request minimal;
  minimal.app_name = "fft";
  minimal.environment = "mpi";
  minimal.deadline = 12.5;
  const Request parsed = request_from_xml(to_xml(minimal));
  EXPECT_FALSE(parsed.task.valid());
  EXPECT_TRUE(parsed.visited.empty());
  EXPECT_EQ(parsed, minimal);
}

}  // namespace
}  // namespace gridlb::agents
