#include "agents/service_info.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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
  const std::string document = to_xml(example());
  xml::Reader doc(document);
  EXPECT_EQ(doc.name(), "agentgrid");
  EXPECT_EQ(doc.attribute("type"), "service");
  doc.open("agent");
  EXPECT_EQ(doc.leaf("address"), "gem.dcs.warwick.ac.uk");
  EXPECT_EQ(doc.leaf("port"), "1000");
  doc.close();
  doc.open("local");
  EXPECT_EQ(doc.leaf("address"), "gem.dcs.warwick.ac.uk");
  EXPECT_EQ(doc.leaf("port"), "10000");
  EXPECT_EQ(doc.leaf("type"), "SunUltra10");
  EXPECT_EQ(doc.leaf("nproc"), "16");
  EXPECT_EQ(doc.leaf("environment"), "mpi");
  EXPECT_EQ(doc.leaf("environment"), "pvm");
  EXPECT_EQ(doc.leaf("environment"), "test");
  EXPECT_EQ(doc.leaf("freetime"), "4312.500000");
  doc.close();
  doc.finish();
}

TEST(ServiceInfo, RejectsChildrenOutOfOrder) {
  // What a reader that dispatched by name once read, keeping the first of
  // each name and every <environment>.
  EXPECT_THROW(
      service_info_from_xml(
          "<agentgrid type=\"service\"><local><freetime>1.5</freetime>"
          "<environment>pvm</environment><nproc>4</nproc><port>2</port>"
          "<environment>mpi</environment><port>99</port><type>t</type>"
          "<address>l</address><skipped a='1'><x/></skipped></local>"
          "<agent><port>1</port><address>a</address></agent>"
          "<local><nproc>8</nproc></local></agentgrid>"),
      xml::ParseError);
}

TEST(ServiceInfo, LeafTextRoundTripsVerbatim) {
  ServiceInfo info = example();
  info.agent_address = " gem.dcs.warwick.ac.uk";
  info.local_address = "gem.dcs.warwick.ac.uk ";
  info.hardware_type = " SunUltra10 ";
  info.environments = {" mpi", "pvm ", "  "};
  const ServiceInfo parsed = service_info_from_xml(to_xml(info));
  EXPECT_EQ(parsed.environments, info.environments);
  EXPECT_EQ(parsed, info);
}

TEST(ServiceInfo, RejectsWhatToXmlCannotWrite) {
  // Each is one edit of a written document, and a ParseError.  The run of
  // <environment> leaves may be empty or long, but stands between
  // <nproc> and <freetime>.
  const std::string document = to_xml(example());
  const auto edit = [&document](const std::string& from,
                                const std::string& to) {
    std::string edited = document;
    const auto at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return edited.replace(at, from.size(), to);
  };
  const std::string port = "    <port>1000</port>\n";
  const std::string type = "    <type>SunUltra10</type>\n";
  const std::string test = "    <environment>test</environment>\n";
  const std::string freetime = "    <freetime>4312.500000</freetime>\n";
  const struct {
    const char* what;
    std::string document;
  } cases[] = {
      {"a declaration", "<?xml version=\"1.0\"?>\n" + document},
      {"a comment", edit("<local>", "<local><!-- note -->")},
      {"a single-quoted value", edit("type=\"service\"", "type='service'")},
      {"text beside child elements", edit("<agent>", "<agent>note")},
      {"a child out of order",
       edit("    <address>gem.dcs.warwick.ac.uk</address>\n" + port,
            port + "    <address>gem.dcs.warwick.ac.uk</address>\n")},
      {"an environment out of its run",
       edit(test + freetime, freetime + test)},
      {"a missing child", edit(type, "")},
      {"a repeated child", edit(port, port + port)},
      {"an unknown child", edit("<local>", "<local><extra/>")},
  };
  for (const auto& [what, edited] : cases) {
    EXPECT_THROW(service_info_from_xml(edited), xml::ParseError)
        << what << "\n" << edited;
  }
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
               xml::ParseError);
  EXPECT_THROW(service_info_from_xml(
                   "<agentgrid type=\"service\"><agent><address>a</address>"
                   "<port>1</port></agent></agentgrid>"),
               xml::ParseError);
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
