// Deterministic mutation fuzzing of the text parsers that read user or
// wire input: xml::Reader and the typed agent-document readers on top of it,
// pace::parse_model (model files) and core::parse_workload_jsonl
// (--arrival-trace).  Seeded byte flips, truncations and splices of a small
// corpus; every mutant must either parse and round-trip through the
// matching writer, or fail with that parser's own error.  Any other
// exception fails the test, and the sanitizer builds turn a crash,
// undefined behaviour or a view into freed memory into a failure too.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "agents/request.hpp"
#include "agents/result.hpp"
#include "agents/service_info.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/workload.hpp"
#include "pace/model_parser.hpp"
#include "pace/paper_applications.hpp"
#include "support/xml_tree.hpp"
#include "xml/xml.hpp"

namespace gridlb {
namespace {

constexpr int kMutantsPerParser = 10000;

/// Bytes the parsers give meaning to, favoured over uniform noise so the
/// mutants reach past the first syntax check.
constexpr std::string_view kInteresting =
    "<>/=\"'&;#!?- \n\t.0123456789eE+nainf:,{}[]";

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(GRIDLB_CLI_FIXTURES) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

char random_byte(Rng& rng) {
  if (rng.chance(0.5)) {
    return kInteresting[rng.next_below(kInteresting.size())];
  }
  return static_cast<char>(rng.next_below(256));
}

/// One to three stacked edits of a corpus entry: flip, insert or delete a
/// byte, truncate, or splice with another entry.
std::string mutate(const std::vector<std::string>& corpus, Rng& rng) {
  std::string text = corpus[rng.next_below(corpus.size())];
  const int edits = 1 + static_cast<int>(rng.next_below(3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.next_below(text.size() + 1);
    switch (rng.next_below(5)) {
      case 0:  // flip
        if (pos < text.size()) text[pos] = random_byte(rng);
        break;
      case 1:  // insert
        text.insert(pos, 1, random_byte(rng));
        break;
      case 2:  // delete
        if (pos < text.size()) text.erase(pos, 1);
        break;
      case 3:  // truncate
        text.resize(pos);
        break;
      default: {  // splice: this prefix + another entry's suffix
        const std::string& other = corpus[rng.next_below(corpus.size())];
        text = text.substr(0, pos) +
               other.substr(rng.next_below(other.size() + 1));
        break;
      }
    }
  }
  return text;
}

/// Runs `round_trip` on every corpus entry and on kMutantsPerParser
/// seeded mutants.  `own_error` says whether an exception is the parser's
/// own rejection; anything else is reported with the offending input.
void fuzz(const std::vector<std::string>& corpus, std::uint64_t seed,
          const std::function<void(const std::string&)>& round_trip,
          const std::function<bool(const std::exception&)>& own_error) {
  Rng rng(seed);
  int parsed = 0;
  int rejected = 0;
  for (int i = -static_cast<int>(corpus.size()); i < kMutantsPerParser; ++i) {
    const std::string input =
        i < 0 ? corpus[static_cast<std::size_t>(-i - 1)] : mutate(corpus, rng);
    try {
      round_trip(input);
      ++parsed;
    } catch (const std::exception& error) {
      if (!own_error(error)) {
        ADD_FAILURE() << "unexpected exception: " << error.what()
                      << "\ninput:\n" << input;
        return;
      }
      ++rejected;
    }
  }
  // Neither outcome may be vacuous.
  EXPECT_GT(parsed, kMutantsPerParser / 20);
  EXPECT_GT(rejected, kMutantsPerParser / 20);
}

/// Writes a tree read back out with xml::Writer: an element's text inline
/// after its start tag, then its children.
void write_element(xml::Writer& writer, const xml::testing::Node& element) {
  writer.open(element.name);
  for (const auto& [key, value] : element.attributes) {
    writer.attribute(key, value);
  }
  writer.text(element.text);
  for (const xml::testing::Node& child : element.children) {
    write_element(writer, child);
  }
  writer.close();
}

/// Reads `document` into a tree and writes it back out.
std::string rewrite(const std::string& document) {
  xml::Writer writer(0);
  write_element(writer, xml::testing::read_tree(document));
  return std::move(writer).finish();
}

TEST(ParserFuzz, XmlParseRoundTripsOrThrowsParseError) {
  agents::ServiceInfo info;
  info.agent_address = "gem.dcs.warwick.ac.uk";
  info.agent_port = 1000;
  info.local_address = "gem.dcs.warwick.ac.uk";
  info.local_port = 10000;
  info.hardware_type = "SunUltra10";
  info.nproc = 16;
  info.environments = {"mpi", "pvm", "test"};
  info.freetime = 100.5;
  agents::Request request;
  request.task = TaskId(7);
  request.app_name = "sweep3d";
  request.binary_file = "/dcs/agentgrid/binary/sweep3d";
  request.input_file = "/dcs/agentgrid/binary/input.50";
  request.model_name = "/dcs/agentgrid/model/sweep3d";
  request.environment = "test";
  request.deadline = 437.25;
  request.email = "user@example.org";
  request.origin = 42;
  agents::ExecutionResult result;
  result.task = TaskId(7);
  result.app_name = "fft <&> \"quoted\" 'single'";
  result.start = 1.5;
  result.completion = 9.25;
  result.deadline = 10.0;
  const std::vector<std::string> corpus = {
      agents::to_xml(info),
      agents::to_xml(request),
      agents::to_xml(result),
      "<?xml version=\"1.0\"?>\n<a x='1' y=\"&lt;&amp;&gt;\"><b/>t&quot;"
      "<c>u</c>&apos;</a>",
  };
  fuzz(
      corpus, 0x786d6c,
      [](const std::string& input) {
        const std::string once = rewrite(input);
        EXPECT_EQ(rewrite(once), once) << input;
      },
      [](const std::exception& error) {
        return dynamic_cast<const xml::ParseError*>(&error) != nullptr;
      });
}

/// Reads `document`, whose root start tag the reader has read, with
/// `read`, writes it and reads it back: the value a write has rounded
/// (doubles keep six decimals) must then be a fixed point, written to the
/// same text and read back equal.
template <class Value, class Read>
void expect_reads_back(xml::Reader& document, Read read) {
  const std::string text = agents::to_xml(read(document));
  xml::Reader again_reader(text);
  const Value again = read(again_reader);
  const std::string rewritten = agents::to_xml(again);
  EXPECT_EQ(rewritten, text);
  xml::Reader rewritten_reader(rewritten);
  EXPECT_TRUE(read(rewritten_reader) == again) << rewritten;
}

TEST(ParserFuzz, AgentDocumentsReadBackOrThrowTheirOwnError) {
  // The documents GoldenDocuments and StampedDocuments pin that an agent
  // reads back, written the way the agents write them: the Fig. 5 / Fig. 6
  // documents, then the final-dispatch, relay, msgid and ack stamps.  (The
  // portal only counts result documents, so they have no typed reader.)
  agents::ServiceInfo info;
  info.agent_address = "gem.dcs.warwick.ac.uk";
  info.agent_port = 1000;
  info.local_address = "gem.dcs.warwick.ac.uk";
  info.local_port = 10000;
  info.hardware_type = "SunUltra10";
  info.nproc = 16;
  info.environments = {"mpi", "pvm", "test"};
  info.freetime = 100.5;
  agents::Request request;
  request.task = TaskId(7);
  request.app_name = "sweep3d";
  request.binary_file = "/dcs/junwei/agentgrid/binary/sweep3d";
  request.input_file = "/dcs/junwei/agentgrid/binary/input.50";
  request.model_name = "/dcs/junwei/agentgrid/model/sweep3d";
  request.environment = "test";
  request.deadline = 437.25;
  request.email = "junwei@dcs.warwick.ac.uk";
  std::vector<std::string> corpus = {agents::to_xml(info),
                                     agents::to_xml(request)};

  agents::Request dispatched;
  dispatched.task = TaskId(7);
  dispatched.app_name = "cpi";
  dispatched.binary_file = "/gridlb/binary/cpi";
  dispatched.input_file = "/gridlb/binary/cpi.input";
  dispatched.model_name = "/gridlb/model/cpi";
  dispatched.deadline = 0.5;
  dispatched.email = "user@gridlb.sim";
  dispatched.origin = 9;
  dispatched.visited = {AgentId(4), AgentId(1)};
  std::string final_dispatch = agents::to_xml(dispatched);
  xml::stamp_root(final_dispatch, "final", "1");
  corpus.push_back(final_dispatch);

  agents::ServiceInfo relayed;
  relayed.agent_address = relayed.local_address = "S3.gridlb.sim";
  relayed.agent_port = 1003;
  relayed.local_port = 10003;
  relayed.hardware_type = "SGIOrigin2000";
  relayed.nproc = 16;
  relayed.environments = {"pvm", "test"};
  std::string relay = agents::to_xml(relayed);
  xml::stamp_root(relay, "agentid", "3");
  corpus.push_back(relay);

  agents::Request reliable;
  reliable.task = TaskId(1);
  reliable.app_name = "fft";
  reliable.binary_file = "/gridlb/binary/fft";
  reliable.input_file = "/gridlb/binary/fft.input";
  reliable.model_name = "/gridlb/model/fft";
  reliable.environment = "mpi";
  reliable.deadline = 120.0;
  reliable.email = "user@gridlb.sim";
  reliable.origin = 1;
  std::string stamped = agents::to_xml(reliable);
  xml::stamp_root(stamped, "msgid", "4294967296");
  corpus.push_back(stamped);
  corpus.push_back("<agentgrid type=\"ack\" msgid=\"8589934593\"/>\n");

  fuzz(
      corpus, 0x61676e74,
      [](const std::string& input) {
        xml::Reader document(input);
        if (document.attribute("type") == "service") {
          expect_reads_back<agents::ServiceInfo>(
              document, [](xml::Reader& d) {
                return agents::service_info_from_xml(d);
              });
        } else {  // requests, and every other type the request reader rejects
          expect_reads_back<agents::Request>(
              document, [](xml::Reader& d) {
                return agents::request_from_xml(d);
              });
        }
      },
      // The readers reject a document through GRIDLB_REQUIRE, which always
      // names the offending input; a bare GRIDLB_ASSERT is a bug.
      [](const std::exception& error) {
        if (dynamic_cast<const xml::ParseError*>(&error) != nullptr) {
          return true;
        }
        const auto* assertion = dynamic_cast<const AssertionError*>(&error);
        return assertion != nullptr &&
               require_message(*assertion) != assertion->what();
      });
}

TEST(ParserFuzz, PaceModelRoundTripsOrThrowsModelParseError) {
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  std::vector<std::string> corpus;
  for (const auto& model : catalogue.all()) {
    corpus.push_back(pace::write_model(*model));
  }
  corpus.push_back(
      "# parametric, seconds form\n"
      "application stencil2d\n  deadline 10 120\n  max_procs 16\n"
      "  serial 2.0\n  parallel 60.0\n  comm_per_link 0.8\n  sync 0.5\nend\n");
  corpus.push_back(
      "application mc_sim\n  deadline 5 60\n  flops 1.2e9\n  rate 40\n"
      "  serial_fraction 0.02\nend\n");
  // The rejected model fixtures seed the mutants as well.
  corpus.push_back(read_fixture("bad_deadline.pace"));
  corpus.push_back(read_fixture("unknown_key.pace"));
  fuzz(
      corpus, 0x70616365,
      [](const std::string& input) {
        const std::string once = pace::write_model(*pace::parse_model(input));
        EXPECT_EQ(pace::write_model(*pace::parse_model(once)), once) << input;
      },
      [](const std::exception& error) {
        return dynamic_cast<const pace::ModelParseError*>(&error) != nullptr;
      });
}

TEST(ParserFuzz, WorkloadJsonlRoundTripsOrThrowsItsOwnError) {
  core::WorkloadConfig config;
  config.count = 6;
  config.arrival = core::ArrivalProcess::kOnOff;
  std::vector<std::string> corpus = {
      core::workload_to_jsonl(
          core::generate_workload(config, pace::paper_catalogue(), 12)),
      "{\"at\":0,\"agent\":2147483647,\"app\":\"cpi\",\"deadline_offset\":0}\n"
      "\n{\"at\":1e-300,\"agent\":0,\"app\":\"x\",\"deadline_offset\":1e300}\n",
  };
  // The rejected trace fixtures seed the mutants as well.
  for (const char* name :
       {"malformed_trace.jsonl", "trace_huge_agent.jsonl",
        "trace_infinite_at.jsonl", "trace_negative_deadline.jsonl",
        "trace_nan_deadline.jsonl"}) {
    corpus.push_back(read_fixture(name));
  }
  fuzz(
      corpus, 0x6a736f6e,
      [](const std::string& input) {
        const auto workload = core::parse_workload_jsonl(input);
        EXPECT_EQ(
            core::parse_workload_jsonl(core::workload_to_jsonl(workload)),
            workload)
            << input;
      },
      // The parser rejects input through GRIDLB_REQUIRE with a
      // line-numbered message; an assertion from anywhere else is a bug.
      [](const std::exception& error) {
        const auto* assertion = dynamic_cast<const AssertionError*>(&error);
        return assertion != nullptr &&
               require_message(*assertion).rfind("workload trace line", 0) ==
                   0;
      });
}

}  // namespace
}  // namespace gridlb
