// Exporter tests: Chrome trace-event layout and the JSONL dump.
#include "obs/exporters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace gridlb::obs {
namespace {

TraceEvent make_event(EventKind kind, SimTime at, std::uint64_t task,
                      std::uint64_t resource, double a = 0.0, double b = 0.0,
                      std::uint32_t extra = 0) {
  TraceEvent event;
  event.kind = kind;
  event.at = at;
  event.task = task;
  event.resource = resource;
  event.a = a;
  event.b = b;
  event.extra = extra;
  return event;
}

TraceSnapshot sample_snapshot() {
  TraceSnapshot snapshot;
  snapshot.events = {
      make_event(EventKind::kRequestSubmitted, 1.0, 1, 1, 900.0),
      make_event(EventKind::kTaskSpan, 2.0, 1, 1, 2.0, 12.0, 4),
      make_event(EventKind::kGaRunStarted, 2.0, 0, 2, 3.0),
      make_event(EventKind::kGaGeneration, 2.0, 0, 2, 0.5, 0.8, 0),
      make_event(EventKind::kGaGeneration, 2.0, 0, 2, 0.4, 0.6, 1),
      make_event(EventKind::kQueueDepth, 2.5, 0, 1, 3.0),
      make_event(EventKind::kMessageRetry, 2.6, 1, 1),
      make_event(EventKind::kDuplicateSuppressed, 2.7, 1, 1),
  };
  snapshot.recorded = snapshot.events.size();
  snapshot.dropped = 0;
  return snapshot;
}

TEST(ChromeTrace, ContainsTraceEventsAndTrackMetadata) {
  const std::string json =
      chrome_trace_json(sample_snapshot(), {"S1", "S2"});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Track names for every resource seen in the events.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"S1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"S2 GA\""), std::string::npos);
  // Task execution as a complete span with microsecond timestamps.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2000000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":10000000"), std::string::npos);
  // GA generations render as counter samples.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"best\":0.5"), std::string::npos);
  // Other kinds render as named instants; the ring totals close the file.
  EXPECT_NE(json.find("\"name\":\"message_retry\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"recorded\":8,\"dropped\":0}"),
            std::string::npos)
      << json;
  // Braces balance (CI validates the real file with python -m json.tool).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ChromeTrace, UnknownResourceFallsBackToGenericLabel) {
  TraceSnapshot snapshot;
  snapshot.events = {make_event(EventKind::kQueueDepth, 0.0, 0, 7, 1.0)};
  snapshot.recorded = 1;
  const std::string json = chrome_trace_json(snapshot, {"S1"});
  EXPECT_NE(json.find("\"name\":\"R7\""), std::string::npos) << json;
}

TEST(EventsJsonl, OneObjectPerLineEveryKindIncluded) {
  const TraceSnapshot snapshot = sample_snapshot();
  const std::string jsonl = events_jsonl(snapshot);
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t count = 0;
  bool saw_retry = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"kind\":\"message_retry\"") != std::string::npos) {
      saw_retry = true;
    }
    ++count;
  }
  EXPECT_EQ(count, snapshot.events.size());
  EXPECT_TRUE(saw_retry);
}

TEST(ChromeTrace, ShardStampsGroupEventsByShardProcess) {
  TraceSnapshot snapshot = sample_snapshot();
  // Stamp the task span on shard 0 and the GA events on shard 1 (stamps
  // are 1-based; 0 = unsharded).
  snapshot.events[1].shard = 1;
  snapshot.events[2].shard = 2;
  snapshot.events[3].shard = 2;
  snapshot.events[4].shard = 2;
  const std::string json = chrome_trace_json(snapshot, {"S1", "S2"});
  // One process per shard, named by 0-based index.
  EXPECT_NE(json.find("\"pid\":10,\"tid\":0,\"args\":{\"name\":\"shard 0\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"pid\":11,\"tid\":0,\"args\":{\"name\":\"shard 1\"}"),
            std::string::npos);
  // The stamped span renders inside its shard's process; GA tracks get
  // the offset tid space with a named thread.
  EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":10,\"tid\":1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"pid\":11,\"tid\":1002"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"S2 GA\"}"), std::string::npos);
  // Unstamped events stay on the classic pids.
  EXPECT_NE(json.find("\"pid\":1,\"tid\":1"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ChromeTrace, UnshardedOutputIsByteIdenticalWithShardSupport) {
  // The sharded layout must not disturb a classic run's export: every
  // event carries stamp 0, so the emitted JSON has no shard processes.
  const std::string json =
      chrome_trace_json(sample_snapshot(), {"S1", "S2"});
  EXPECT_EQ(json.find("shard"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"pid\":10"), std::string::npos);
}

TEST(ChromeTrace, ShardSamplesRenderAsEngineCounterTracks) {
  TraceSnapshot snapshot;
  TraceEvent sample =
      make_event(EventKind::kShardSample, 60.0, 0, 0, 420.0, 2.5e6, 1);
  // The recorder stamps the tick's executing shard; the described shard
  // lives in `extra` and must win.
  sample.shard = 1;
  snapshot.events = {sample};
  snapshot.recorded = 1;
  const std::string json = chrome_trace_json(snapshot, {});
  EXPECT_NE(json.find("\"name\":\"engine shards\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"shard 1 events\",\"ph\":\"C\",\"pid\":3,"
                      "\"tid\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"events\":420}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"ms\":2.5}"), std::string::npos);
}

TEST(EventsJsonl, ShardFieldPresentOnlyWhenStamped) {
  TraceSnapshot snapshot = sample_snapshot();
  snapshot.events[1].shard = 3;
  const std::string jsonl = events_jsonl(snapshot);
  // Stamped event reports the 0-based shard; others omit the field.
  std::size_t keys = 0;
  for (std::size_t pos = jsonl.find("\"shard\":"); pos != std::string::npos;
       pos = jsonl.find("\"shard\":", pos + 1)) {
    ++keys;
  }
  EXPECT_EQ(keys, 1u) << jsonl;
  EXPECT_NE(jsonl.find("\"shard\":2"), std::string::npos) << jsonl;
}

TEST(WriteFile, RoundTripsAndReportsFailure) {
  const std::string path = "exporters_test_roundtrip.tmp";
  EXPECT_TRUE(write_file(path, "hello"));
  std::ifstream in(path);
  std::string contents;
  std::getline(in, contents);
  EXPECT_EQ(contents, "hello");
  in.close();
  std::remove(path.c_str());
  EXPECT_FALSE(write_file("no/such/directory/file.json", "x"));
}

}  // namespace
}  // namespace gridlb::obs
