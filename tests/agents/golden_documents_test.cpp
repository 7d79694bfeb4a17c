// Golden tests: the exact serialised shape of the agent protocol's
// documents.  These freeze the wire format — any change to the XML layout
// of Fig. 5 / Fig. 6 / result documents shows up here first.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "agents/agent.hpp"
#include "agents/agent_system.hpp"
#include "agents/portal.hpp"
#include "agents/request.hpp"
#include "agents/result.hpp"
#include "agents/service_info.hpp"
#include "pace/paper_applications.hpp"
#include "sched/local_scheduler.hpp"
#include "sim/network.hpp"

namespace gridlb::agents {
namespace {

TEST(GoldenDocuments, ServiceInfoFig5) {
  ServiceInfo info;
  info.agent_address = "gem.dcs.warwick.ac.uk";
  info.agent_port = 1000;
  info.local_address = "gem.dcs.warwick.ac.uk";
  info.local_port = 10000;
  info.hardware_type = "SunUltra10";
  info.nproc = 16;
  info.environments = {"mpi", "pvm", "test"};
  info.freetime = 100.5;

  const char* expected = R"(<agentgrid type="service">
  <agent>
    <address>gem.dcs.warwick.ac.uk</address>
    <port>1000</port>
  </agent>
  <local>
    <address>gem.dcs.warwick.ac.uk</address>
    <port>10000</port>
    <type>SunUltra10</type>
    <nproc>16</nproc>
    <environment>mpi</environment>
    <environment>pvm</environment>
    <environment>test</environment>
    <freetime>100.500000</freetime>
  </local>
</agentgrid>
)";
  EXPECT_EQ(to_xml(info), expected);
}

TEST(GoldenDocuments, RequestFig6) {
  Request request;
  request.task = TaskId(7);
  request.app_name = "sweep3d";
  request.binary_file = "/dcs/junwei/agentgrid/binary/sweep3d";
  request.input_file = "/dcs/junwei/agentgrid/binary/input.50";
  request.model_name = "/dcs/junwei/agentgrid/model/sweep3d";
  request.environment = "test";
  request.deadline = 437.25;
  request.email = "junwei@dcs.warwick.ac.uk";

  const char* expected = R"(<agentgrid type="request" taskid="7">
  <application>
    <name>sweep3d</name>
    <binary>
      <file>/dcs/junwei/agentgrid/binary/sweep3d</file>
      <inputfile>/dcs/junwei/agentgrid/binary/input.50</inputfile>
    </binary>
    <performance>
      <datatype>pacemodel</datatype>
      <modelname>/dcs/junwei/agentgrid/model/sweep3d</modelname>
    </performance>
  </application>
  <requirement>
    <environment>test</environment>
    <deadline>437.250000</deadline>
  </requirement>
  <email>junwei@dcs.warwick.ac.uk</email>
</agentgrid>
)";
  EXPECT_EQ(to_xml(request), expected);
}

TEST(GoldenDocuments, ExecutionResult) {
  const ExecutionResult result{.task = TaskId(7),
                               .app_name = "sweep3d",
                               .resource_name = "S3",
                               .start = 10.0,
                               .completion = 25.5,
                               .deadline = 30.0,
                               .email = "junwei@dcs.warwick.ac.uk"};

  const char* expected = R"(<agentgrid type="result" taskid="7">
  <application>
    <name>sweep3d</name>
  </application>
  <execution>
    <resource>S3</resource>
    <start>10.000000</start>
    <completion>25.500000</completion>
    <deadline>30.000000</deadline>
  </execution>
  <email>junwei@dcs.warwick.ac.uk</email>
</agentgrid>
)";
  EXPECT_EQ(to_xml(result), expected);
}

// The documents the transport stamps on the way out: the final-dispatch
// marker, the relay's agentid, the reliable msgid and the ack.  They are
// captured on the wire as the agents send them.  The agent or portal under
// test speaks on `wire`; its neighbours are registered on `elsewhere`, so
// on `wire` their endpoint ids belong to recorders that keep every payload
// addressed to them verbatim.
struct StampedDocuments : ::testing::Test {
  static constexpr double kLatency = 0.05;

  sim::Engine engine;
  pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  pace::PredictionTable predictions{
      catalogue,
      {pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000)},
      16};
  sim::Network wire{engine, kLatency};
  sim::Network elsewhere{engine, kLatency};
  /// The lossless grid policy the agents read, one per advertisement scope.
  SystemConfig own_service_grid;
  SystemConfig transitive_grid = [] {
    SystemConfig grid;
    grid.scope = AdvertisementScope::kTransitive;
    return grid;
  }();
  std::vector<std::unique_ptr<sched::LocalScheduler>> schedulers;
  std::vector<std::unique_ptr<Agent>> agents;
  /// Payloads received by recorder i, which on `wire` owns endpoint id i.
  std::vector<std::vector<std::string>> recorded;

  void add_recorders(std::size_t count) {
    recorded.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const sim::EndpointId id = wire.register_endpoint(
          "recorder", static_cast<int>(i),
          [this, i](const sim::Message& message) {
            recorded[i].push_back(message.payload);
          });
      ASSERT_EQ(id, i);
    }
  }

  Agent& add_agent(sim::Network& network, std::uint64_t id,
                   std::vector<std::string> environments,
                   AdvertisementScope scope = AdvertisementScope::kOwnService) {
    sched::LocalScheduler::Config scheduler;
    scheduler.resource_id = AgentId(id);
    scheduler.resource =
        pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);
    scheduler.environments = std::move(environments);
    schedulers.push_back(std::make_unique<sched::LocalScheduler>(
        engine, predictions, std::move(scheduler),
        [](const sched::CompletionRecord&) {}));
    AgentConfig config;
    config.id = AgentId(id);
    config.name = "S" + std::to_string(id);
    config.address = config.name + ".gridlb.sim";
    config.port = 1000 + static_cast<int>(id);
    const SystemConfig& grid = scope == AdvertisementScope::kTransitive
                                   ? transitive_grid
                                   : own_service_grid;
    agents.push_back(std::make_unique<Agent>(engine, network, predictions,
                                             catalogue, grid, std::move(config),
                                             *schedulers.back()));
    return *agents.back();
  }

  /// Advertises `neighbour`'s own service to `agent` over `wire`, from the
  /// recorder that stands in for the neighbour's endpoint there.
  void advertise(const Agent& neighbour, const Agent& agent) {
    wire.send(neighbour.endpoint(), agent.endpoint(),
              to_xml(neighbour.service_snapshot()));
    engine.run();
  }
};

TEST_F(StampedDocuments, FinalDispatchRequest) {
  add_recorders(1);
  Agent& child = add_agent(elsewhere, 3, {"mpi", "pvm", "test"});
  // The head cannot run "test" itself, and no deadline can be met, so its
  // best-effort fallback dispatches the request to the child as final.
  Agent& head = add_agent(wire, 1, {"mpi"});
  head.add_child(&child);
  advertise(child, head);

  Request request;
  request.task = TaskId(7);
  request.app_name = "cpi";
  request.binary_file = "/gridlb/binary/cpi";
  request.input_file = "/gridlb/binary/cpi.input";
  request.model_name = "/gridlb/model/cpi";
  request.deadline = 0.5;
  request.email = "user@gridlb.sim";
  request.origin = 9;
  request.visited = {AgentId(4)};
  head.receive_request(request);
  engine.run();

  const char* expected =
      R"(<agentgrid type="request" taskid="7" origin="9" visited="4,1" final="1">
  <application>
    <name>cpi</name>
    <binary>
      <file>/gridlb/binary/cpi</file>
      <inputfile>/gridlb/binary/cpi.input</inputfile>
    </binary>
    <performance>
      <datatype>pacemodel</datatype>
      <modelname>/gridlb/model/cpi</modelname>
    </performance>
  </application>
  <requirement>
    <environment>test</environment>
    <deadline>0.500000</deadline>
  </requirement>
  <email>user@gridlb.sim</email>
</agentgrid>
)";
  ASSERT_EQ(recorded[0].size(), 1u);
  EXPECT_EQ(recorded[0][0], expected);
}

TEST_F(StampedDocuments, RelayedAdvertisement) {
  add_recorders(2);
  Agent& requester = add_agent(elsewhere, 2, {"mpi", "pvm", "test"});
  Agent& described = add_agent(elsewhere, 3, {"pvm", "test"});
  Agent& relay =
      add_agent(wire, 1, {"mpi"}, AdvertisementScope::kTransitive);
  relay.add_child(&requester);
  relay.add_child(&described);
  advertise(described, relay);

  // A pull from the requester: the relay answers with its own service,
  // then relays what it learned from the other child, naming it.
  wire.send(requester.endpoint(), relay.endpoint(),
            R"(<agentgrid type="pull"/>)");
  engine.run();

  const char* expected = R"(<agentgrid type="service" agentid="3">
  <agent>
    <address>S3.gridlb.sim</address>
    <port>1003</port>
  </agent>
  <local>
    <address>S3.gridlb.sim</address>
    <port>10003</port>
    <type>SGIOrigin2000</type>
    <nproc>16</nproc>
    <environment>pvm</environment>
    <environment>test</environment>
    <freetime>0.000000</freetime>
  </local>
</agentgrid>
)";
  ASSERT_EQ(recorded[0].size(), 2u);
  EXPECT_EQ(recorded[0][1], expected);
}

TEST_F(StampedDocuments, ReliableRequestCarriesMsgid) {
  add_recorders(1);
  Agent& entry = add_agent(elsewhere, 1, {"mpi", "pvm", "test"});
  Portal portal(engine, wire, catalogue, nullptr, RetryPolicy{});
  portal.submit(entry, "fft", 120.0, "mpi", "user@gridlb.sim");
  engine.run_until(0.25);  // before the first ack timeout

  const char* expected =
      R"(<agentgrid type="request" taskid="1" origin="1" msgid="4294967296">
  <application>
    <name>fft</name>
    <binary>
      <file>/gridlb/binary/fft</file>
      <inputfile>/gridlb/binary/fft.input</inputfile>
    </binary>
    <performance>
      <datatype>pacemodel</datatype>
      <modelname>/gridlb/model/fft</modelname>
    </performance>
  </application>
  <requirement>
    <environment>mpi</environment>
    <deadline>120.000000</deadline>
  </requirement>
  <email>user@gridlb.sim</email>
</agentgrid>
)";
  ASSERT_EQ(recorded[0].size(), 1u);
  EXPECT_EQ(recorded[0][0], expected);
}

TEST_F(StampedDocuments, Ack) {
  add_recorders(1);
  Portal portal(engine, wire, catalogue, nullptr, RetryPolicy{});
  const ExecutionResult result{.task = TaskId(7),
                               .app_name = "cpi",
                               .resource_name = "S2",
                               .email = {}};
  std::string payload = to_xml(result);
  payload.insert(payload.find('>'), R"( msgid="8589934593")");
  wire.send(0, 1, payload);
  engine.run();

  ASSERT_EQ(recorded[0].size(), 1u);
  EXPECT_EQ(recorded[0][0], "<agentgrid type=\"ack\" msgid=\"8589934593\"/>\n");
  EXPECT_EQ(portal.outcomes().size(), 1u);
}

}  // namespace
}  // namespace gridlb::agents
