#include "agents/result.hpp"

#include <gtest/gtest.h>

#include "agents/agent_system.hpp"
#include "agents/portal.hpp"
#include "common/assert.hpp"
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

TEST(ExecutionResult, RoundTrip) {
  EXPECT_EQ(result_from_xml(to_xml(example())), example());
}

TEST(ExecutionResult, MetDeadlineHelper) {
  ExecutionResult result = example();
  EXPECT_TRUE(result.met_deadline());
  result.completion = 41.0;
  EXPECT_FALSE(result.met_deadline());
}

TEST(ExecutionResult, DocumentShape) {
  const auto doc = xml::parse(to_xml(example()));
  EXPECT_EQ(*doc->attribute("type"), "result");
  EXPECT_EQ(*doc->attribute("taskid"), "17");
  ASSERT_NE(doc->child("execution"), nullptr);
  EXPECT_EQ(doc->child("execution")->child_text("resource"), "S4");
  EXPECT_EQ(doc->child("application")->child_text("name"), "jacobi");
}

TEST(ExecutionResult, RejectsWrongType) {
  EXPECT_THROW(result_from_xml("<agentgrid type=\"request\"/>"),
               AssertionError);
  EXPECT_THROW(result_from_xml("<agentgrid type=\"result\"/>"),
               AssertionError);
}

TEST(ExecutionResult, RejectsMalformedTimes) {
  const std::string document = to_xml(example());
  for (const std::string element : {"start", "completion", "deadline"}) {
    const auto open = document.find("<" + element + ">") + element.size() + 2;
    const auto close = document.find("</" + element + ">");
    // Empty, trailing junk, not a number, not finite.
    for (const char* text : {"", "12.5abc", "x", "nan", "inf"}) {
      std::string malformed = document;
      malformed.replace(open, close - open, text);
      EXPECT_THROW(result_from_xml(malformed), AssertionError)
          << element << " = '" << text << "'";
    }
  }
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
  ASSERT_EQ(portal.results_received(), 1u);
  const auto& outcome = portal.outcomes()[0];
  EXPECT_EQ(outcome.result.task, task);
  EXPECT_EQ(outcome.result.app_name, "closure");
  EXPECT_EQ(outcome.result.resource_name, "S1");
  EXPECT_EQ(outcome.result.email, "user@example.org");
  EXPECT_TRUE(outcome.result.met_deadline());
  // Turnaround covers two network trips plus the execution time.
  EXPECT_GT(outcome.turnaround(), outcome.result.completion -
                                      outcome.result.start);
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
  ASSERT_EQ(portal.results_received(), 1u);
  EXPECT_EQ(portal.outcomes()[0].result.resource_name, "S1");
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
  EXPECT_GT(portal.mean_turnaround(), 0.0);
  // Met flags in the results agree with the metrics collector.
  int met_via_results = 0;
  for (const auto& outcome : portal.outcomes()) {
    if (outcome.result.met_deadline()) ++met_via_results;
  }
  EXPECT_EQ(met_via_results, collector.report().total.deadlines_met);
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

}  // namespace
}  // namespace gridlb::agents
