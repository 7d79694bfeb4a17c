#include "agents/request.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "support/xml_tree.hpp"
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
  const xml::testing::Node doc = xml::testing::read_tree(to_xml(example()));
  EXPECT_EQ(doc.name, "agentgrid");
  EXPECT_EQ(doc.attribute("type"), "request");
  const xml::testing::Node* application = doc.child("application");
  ASSERT_NE(application, nullptr);
  EXPECT_EQ(application->child_text("name"), "sweep3d");
  ASSERT_NE(application->child("binary"), nullptr);
  EXPECT_EQ(application->child("binary")->child_text("inputfile"),
            "/dcs/junwei/agentgrid/binary/input.50");
  ASSERT_NE(application->child("performance"), nullptr);
  EXPECT_EQ(application->child("performance")->child_text("datatype"),
            "pacemodel");
  const xml::testing::Node* requirement = doc.child("requirement");
  ASSERT_NE(requirement, nullptr);
  EXPECT_EQ(requirement->child_text("environment"), "test");
  EXPECT_EQ(doc.child_text("email"), "junwei@dcs.warwick.ac.uk");
}

TEST(Request, ReadsChildrenInAnyOrderAndTheFirstOfANameCounts) {
  const Request parsed = request_from_xml(
      "<agentgrid type=\"request\"><email>a&amp;b</email>"
      "<requirement><deadline>2.5</deadline><unknown><x/></unknown>"
      "<environment>mpi</environment><deadline>9</deadline></requirement>"
      "<application><performance><modelname>m</modelname>"
      "<datatype>pacemodel</datatype></performance>"
      "<name>n<!-- split -->ame</name><name>later</name></application>"
      "<application><name>second</name></application><email>e</email>"
      "</agentgrid>");
  EXPECT_EQ(parsed.email, "a&b");
  EXPECT_DOUBLE_EQ(parsed.deadline, 2.5);
  EXPECT_EQ(parsed.environment, "mpi");
  EXPECT_EQ(parsed.model_name, "m");
  EXPECT_EQ(parsed.app_name, "name");
  EXPECT_EQ(parsed.binary_file, "");  // no <binary>
}

TEST(Request, RejectsMalformedBodyAfterTheFields) {
  // Every field is read before the bad bytes, and still the reader
  // checks the document to its end.
  EXPECT_THROW(request_from_xml(to_xml(example()) + "<trailing/>"),
               xml::ParseError);
  EXPECT_THROW(
      request_from_xml("<agentgrid type=\"request\"><application><name>x"
                       "</name></application><requirement><deadline>1"
                       "</deadline></requirement><junk>&bogus;</junk>"
                       "</agentgrid>"),
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
               AssertionError);
}

TEST(Request, RejectsMissingDeadline) {
  EXPECT_THROW(
      request_from_xml("<agentgrid type=\"request\">"
                       "<application><name>x</name></application>"
                       "<requirement><environment>test</environment>"
                       "</requirement></agentgrid>"),
      AssertionError);
}

TEST(Request, RejectsNonPaceModelPerformanceData) {
  EXPECT_THROW(
      request_from_xml("<agentgrid type=\"request\">"
                       "<application><name>x</name><performance>"
                       "<datatype>trace</datatype></performance>"
                       "</application>"
                       "<requirement><deadline>1</deadline></requirement>"
                       "</agentgrid>"),
      AssertionError);
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

TEST(Request, MinimalDocumentParses) {
  const Request parsed = request_from_xml(
      "<agentgrid type=\"request\">"
      "<application><name>fft</name></application>"
      "<requirement><environment>mpi</environment>"
      "<deadline>12.5</deadline></requirement>"
      "</agentgrid>");
  EXPECT_EQ(parsed.app_name, "fft");
  EXPECT_EQ(parsed.environment, "mpi");
  EXPECT_DOUBLE_EQ(parsed.deadline, 12.5);
  EXPECT_FALSE(parsed.task.valid());
  EXPECT_TRUE(parsed.visited.empty());
}

}  // namespace
}  // namespace gridlb::agents
