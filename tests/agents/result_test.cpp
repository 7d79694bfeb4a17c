#include "agents/result.hpp"

#include <gtest/gtest.h>

#include "agents/agent_system.hpp"
#include "agents/numbers.hpp"
#include "agents/portal.hpp"
#include "pace/paper_applications.hpp"
#include "xml/xml.hpp"

namespace gridlb::agents {
namespace {

ExecutionResult example() {
  ExecutionResult result;
  result.task = TaskId(17);
  result.app_name = "jacobi";
  result.resource_name = "S4";
  result.start = 12.5;
  result.completion = 31.0;
  result.deadline = 40.0;
  result.email = "junwei@dcs.warwick.ac.uk";
  return result;
}

TEST(ExecutionResult, DocumentShape) {
  const std::string document = to_xml(example());
  xml::Reader doc(document);
  EXPECT_EQ(doc.attribute("type"), "result");
  EXPECT_EQ(doc.attribute("taskid"), "17");
  doc.open("application");
  EXPECT_EQ(doc.leaf("name"), "jacobi");
  doc.close();
  doc.open("execution");
  EXPECT_EQ(doc.leaf("resource"), "S4");
  EXPECT_EQ(doc.leaf("start"), "12.500000");
  EXPECT_EQ(doc.leaf("completion"), "31.000000");
  EXPECT_EQ(doc.leaf("deadline"), "40.000000");
  doc.close();
  EXPECT_EQ(doc.leaf("email"), "junwei@dcs.warwick.ac.uk");
  doc.finish();
}

TEST(RequestOrigin, RoundTripsThroughXml) {
  Request request;
  request.task = TaskId(3);
  request.app_name = "fft";
  request.deadline = 10.0;
  request.origin = 42u;
  const Request parsed = request_from_xml(to_xml(request));
  ASSERT_TRUE(parsed.origin.has_value());
  EXPECT_EQ(*parsed.origin, 42u);

  request.origin.reset();
  EXPECT_FALSE(request_from_xml(to_xml(request)).origin.has_value());
}

// --- end-to-end delivery --------------------------------------------------

struct ResultDeliveryFixture : ::testing::Test {
  sim::Engine engine;
  metrics::MetricsCollector collector;
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();

  SystemConfig config() {
    SystemConfig system_config;
    system_config.resources = {
        {"S1", pace::HardwareType::kSgiOrigin2000, 16, -1},
        {"S2", pace::HardwareType::kSunSparcStation2, 16, 0},
    };
    return system_config;
  }
};

TEST_F(ResultDeliveryFixture, PortalReceivesResultForLocalDispatch) {
  AgentSystem system(engine, catalogue, config(), &collector);
  system.start();
  Portal portal(engine, system.network(), catalogue, &collector);
  const TaskId task = portal.submit(system.agent_named("S1"), "closure",
                                    1000.0, "test", "user@example.org");
  engine.run_until(3600.0);
  EXPECT_EQ(portal.results_received(), 1u);
  ASSERT_EQ(collector.records().size(), 1u);
  const sched::CompletionRecord& record = collector.records()[0];
  EXPECT_EQ(record.task, task);
  EXPECT_EQ(record.app_name, "closure");
  EXPECT_EQ(record.resource, system.agent_named("S1").id());
  EXPECT_LE(record.end, record.deadline);
  EXPECT_EQ(system.agent_named("S1").stats().results_sent, 1u);
}

TEST_F(ResultDeliveryFixture, ResultComesFromTheExecutingAgent) {
  AgentSystem system(engine, catalogue, config(), &collector);
  system.start();
  Portal portal(engine, system.network(), catalogue, &collector);
  engine.run_until(1.0);  // let advertisements land
  // sweep3d in 10 s is impossible on the SPARCstation2 (min 20 s); the
  // request forwards to S1, which must also send the result.
  portal.submit(system.agent_named("S2"), "sweep3d", engine.now() + 10.0);
  engine.run_until(3600.0);
  EXPECT_EQ(portal.results_received(), 1u);
  ASSERT_EQ(collector.records().size(), 1u);
  EXPECT_EQ(collector.records()[0].resource, system.agent_named("S1").id());
  EXPECT_EQ(system.agent_named("S1").stats().results_sent, 1u);
  EXPECT_EQ(system.agent_named("S2").stats().results_sent, 0u);
}

TEST_F(ResultDeliveryFixture, EveryCampaignTaskGetsAResult) {
  AgentSystem system(engine, catalogue, config(), &collector);
  system.start();
  Portal portal(engine, system.network(), catalogue, &collector);
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    engine.schedule_at(static_cast<double>(i) + 1.0, [&, i]() {
      const auto& app = catalogue.all()[static_cast<std::size_t>(i) % 7];
      const auto domain = app->deadline_domain();
      portal.submit(system.agent(static_cast<std::size_t>(i) % 2),
                    app->name(),
                    engine.now() + rng.uniform(domain.lo, domain.hi));
    });
  }
  engine.run_until(7200.0);
  EXPECT_EQ(portal.results_received(), 30u);
  EXPECT_EQ(collector.completed_tasks(), 30u);
}

TEST_F(ResultDeliveryFixture, FireAndForgetRequestsProduceNoResult) {
  AgentSystem system(engine, catalogue, config(), &collector);
  system.start();
  // A request injected directly (no origin attribute).
  Request request;
  request.task = TaskId(99);
  request.app_name = "cpi";
  request.deadline = 1e6;
  system.agent_named("S1").receive_request(std::move(request));
  engine.run_until(3600.0);
  EXPECT_EQ(system.agent_named("S1").stats().results_sent, 0u);
  EXPECT_EQ(collector.completed_tasks(), 1u);
}

TEST_F(ResultDeliveryFixture, ResultDocumentDescribesTheExecution) {
  AgentSystem system(engine, catalogue, config(), &collector);
  system.start();
  // A recorder stands in for the portal and keeps the result verbatim.
  std::vector<std::string> received;
  const sim::EndpointId user = system.network().register_endpoint(
      [&received](const sim::Message& message) {
        received.push_back(message.payload);
      });
  Request request;
  request.task = TaskId(5);
  request.app_name = "closure";
  request.deadline = 1000.0;
  request.email = "user@example.org";
  request.origin = user;
  system.agent_named("S1").receive_request(std::move(request));
  engine.run_until(3600.0);

  ASSERT_EQ(received.size(), 1u);
  ASSERT_EQ(collector.records().size(), 1u);
  const sched::CompletionRecord& record = collector.records()[0];
  xml::Reader document(received[0]);
  EXPECT_EQ(document.attribute("type"), "result");
  EXPECT_EQ(document.attribute("taskid"), "5");
  document.open("application");
  EXPECT_EQ(document.leaf("name"), "closure");
  document.close();
  document.open("execution");
  EXPECT_EQ(document.leaf("resource"), "S1");
  EXPECT_EQ(document.leaf("start"), NumberText(record.start).view());
  EXPECT_EQ(document.leaf("completion"), NumberText(record.end).view());
  EXPECT_EQ(document.leaf("deadline"), NumberText(record.deadline).view());
  document.close();
  EXPECT_EQ(document.leaf("email"), "user@example.org");
  document.finish();
}

// --- what the portal reads ------------------------------------------------

TEST(PortalResults, CountedByTheirRootStartTag) {
  // The portal reads a result's root start tag and nothing after it.
  sim::Engine engine;
  sim::Network network(engine, 0.05);
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  Portal portal(engine, network, catalogue, nullptr);
  const sim::EndpointId agent = network.register_endpoint([](auto&) {});
  network.send(agent, portal.endpoint(),
               "<agentgrid type=\"result\" taskid=\"5\"><never-read>&bogus;");
  engine.run();
  EXPECT_EQ(portal.results_received(), 1u);
}

TEST(PortalResults, MalformedRootStartTagStillThrows) {
  sim::Engine engine;
  sim::Network network(engine, 0.05);
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  Portal portal(engine, network, catalogue, nullptr);
  const sim::EndpointId agent = network.register_endpoint([](auto&) {});
  network.send(agent, portal.endpoint(), "<agentgrid type=\"result>");
  EXPECT_THROW(engine.run(), xml::ParseError);
  EXPECT_EQ(portal.results_received(), 0u);
}

}  // namespace
}  // namespace gridlb::agents
