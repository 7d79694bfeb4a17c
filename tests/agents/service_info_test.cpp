#include "agents/service_info.hpp"

#include <gtest/gtest.h>

#include <iterator>

#include "common/assert.hpp"
#include "xml/xml.hpp"

namespace gridlb::agents {
namespace {

ServiceInfo example() {
  // The Fig. 5 example: a cluster of 16 SunUltra10 workstations.
  ServiceInfo info;
  info.agent_address = "gem.dcs.warwick.ac.uk";
  info.agent_port = 1000;
  info.local_address = "gem.dcs.warwick.ac.uk";
  info.local_port = 10000;
  info.hardware_type = "SunUltra10";
  info.nproc = 16;
  info.environments = {"mpi", "pvm", "test"};
  info.freetime = 4312.5;
  return info;
}

TEST(ServiceInfo, RoundTrip) {
  const ServiceInfo original = example();
  const ServiceInfo parsed = service_info_from_xml(to_xml(original));
  EXPECT_EQ(parsed, original);
}

TEST(ServiceInfo, DocumentShapeMatchesFig5) {
  const auto doc = xml::parse(to_xml(example()));
  EXPECT_EQ(doc->name(), "agentgrid");
  EXPECT_EQ(*doc->attribute("type"), "service");
  const xml::Element* agent = doc->child("agent");
  ASSERT_NE(agent, nullptr);
  EXPECT_EQ(agent->child_text("address"), "gem.dcs.warwick.ac.uk");
  EXPECT_EQ(agent->child_text("port"), "1000");
  const xml::Element* local = doc->child("local");
  ASSERT_NE(local, nullptr);
  EXPECT_EQ(local->child_text("type"), "SunUltra10");
  EXPECT_EQ(local->child_text("nproc"), "16");
  EXPECT_EQ(std::ranges::distance(local->children_named("environment")), 3);
  EXPECT_FALSE(local->child_text("freetime").empty());
}

TEST(ServiceInfo, EmptyEnvironmentListSurvives) {
  ServiceInfo info = example();
  info.environments.clear();
  EXPECT_EQ(service_info_from_xml(to_xml(info)), info);
}

TEST(ServiceInfo, RejectsWrongDocumentType) {
  EXPECT_THROW(service_info_from_xml("<agentgrid type=\"request\"/>"),
               AssertionError);
  EXPECT_THROW(service_info_from_xml("<other/>"), AssertionError);
}

TEST(ServiceInfo, RejectsMissingSections) {
  EXPECT_THROW(service_info_from_xml("<agentgrid type=\"service\"/>"),
               AssertionError);
  EXPECT_THROW(service_info_from_xml(
                   "<agentgrid type=\"service\"><agent><address>a</address>"
                   "<port>1</port></agent></agentgrid>"),
               AssertionError);
}

TEST(ServiceInfo, RejectsMalformedNumbers) {
  ServiceInfo info = example();
  std::string doc = to_xml(info);
  const auto pos = doc.find("<nproc>16</nproc>");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, 17, "<nproc>many</nproc>");
  EXPECT_THROW(service_info_from_xml(doc), AssertionError);
}

TEST(ServiceInfo, RejectsMalformedXml) {
  EXPECT_THROW(service_info_from_xml("<agentgrid type=\"service\">"),
               xml::ParseError);
}

TEST(ServiceInfo, FreetimePrecisionSurvives) {
  ServiceInfo info = example();
  info.freetime = 123.456789;
  const ServiceInfo parsed = service_info_from_xml(to_xml(info));
  EXPECT_NEAR(parsed.freetime, info.freetime, 1e-6);
}

}  // namespace
}  // namespace gridlb::agents
