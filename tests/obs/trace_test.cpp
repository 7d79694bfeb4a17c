// Trace recorder unit tests: the disabled path records nothing, the ring
// wraps with accurate drop accounting, and a session's instruments are
// reachable only from the thread that installed them.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "obs/obs.hpp"

namespace gridlb::obs {
namespace {

TraceEvent event_at(SimTime at, EventKind kind = EventKind::kQueueDepth) {
  TraceEvent event;
  event.at = at;
  event.kind = kind;
  return event;
}

ObsConfig trace_config() {
  ObsConfig config;
  config.trace = true;
  return config;
}

TEST(Trace, DisabledByDefault) {
  EXPECT_EQ(trace(), nullptr);
  // emit() with no recorder installed must be a no-op, not a crash.
  for (int i = 0; i < 100; ++i) emit(event_at(static_cast<double>(i)));
}

TEST(Trace, EventsEmittedWhileDisabledAreNeverBuffered) {
  emit(event_at(1.0));
  emit(event_at(2.0));
  Session session(trace_config());
  const TraceSnapshot snapshot = session.recorder()->snapshot();
  EXPECT_EQ(snapshot.events.size(), 0u);
  EXPECT_EQ(snapshot.recorded, 0u);
  EXPECT_EQ(snapshot.dropped, 0u);
}

TEST(Trace, RecordsThroughTheGlobalAccessor) {
  Session session(trace_config());
  ASSERT_NE(trace(), nullptr);
  emit(event_at(3.0, EventKind::kGaRunStarted));
  emit(event_at(1.0, EventKind::kRequestSubmitted));
  emit(event_at(2.0, EventKind::kTaskCompleted));
  const TraceSnapshot snapshot = session.recorder()->snapshot();
  ASSERT_EQ(snapshot.events.size(), 3u);
  EXPECT_EQ(snapshot.recorded, 3u);
  EXPECT_EQ(snapshot.dropped, 0u);
  // Sorted ascending by timestamp.
  EXPECT_DOUBLE_EQ(snapshot.events[0].at, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.events[1].at, 2.0);
  EXPECT_DOUBLE_EQ(snapshot.events[2].at, 3.0);
  EXPECT_EQ(snapshot.events[0].kind, EventKind::kRequestSubmitted);
}

TEST(Trace, UninstalledOnSessionDestruction) {
  {
    Session session(trace_config());
    EXPECT_NE(trace(), nullptr);
  }
  EXPECT_EQ(trace(), nullptr);
  emit(event_at(1.0));  // must not touch the destroyed recorder
}

TEST(Trace, RingWrapKeepsNewestAndCountsDropped) {
  TraceRecorder recorder(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.record(event_at(static_cast<double>(i)));
  }
  const TraceSnapshot snapshot = recorder.snapshot();
  EXPECT_EQ(snapshot.recorded, 10u);
  EXPECT_EQ(snapshot.dropped, 6u);
  ASSERT_EQ(snapshot.events.size(), 4u);
  EXPECT_DOUBLE_EQ(snapshot.events.front().at, 6.0);
  EXPECT_DOUBLE_EQ(snapshot.events.back().at, 9.0);
}

TEST(Trace, OtherThreadsSeeNoInstruments) {
  ObsConfig config = trace_config();
  config.metrics = true;
  Session session(config);
  ASSERT_NE(trace(), nullptr);
  ASSERT_NE(registry(), nullptr);
  emit(event_at(1.0));
  TraceRecorder* worker_trace = session.recorder();
  MetricsRegistry* worker_registry = session.registry();
  std::thread worker([&] {
    worker_trace = trace();
    worker_registry = registry();
    emit(event_at(2.0, EventKind::kGaRunFinished));  // a no-op here
  });
  worker.join();
  EXPECT_EQ(worker_trace, nullptr);
  EXPECT_EQ(worker_registry, nullptr);
  const TraceSnapshot snapshot = session.recorder()->snapshot();
  ASSERT_EQ(snapshot.events.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.events[0].at, 1.0);
}

TEST(Trace, SecondSessionStartsEmpty) {
  {
    Session first(trace_config());
    emit(event_at(1.0));
  }
  // Nothing the first session recorded may leak into the second.
  Session second(trace_config());
  emit(event_at(7.0));
  const TraceSnapshot snapshot = second.recorder()->snapshot();
  ASSERT_EQ(snapshot.events.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.events[0].at, 7.0);
}

TEST(Trace, KindNamesAreStable) {
  EXPECT_EQ(kind_name(EventKind::kTaskMigrated), "task_migrated");
  EXPECT_EQ(kind_name(EventKind::kGaGeneration), "ga_generation");
  EXPECT_EQ(kind_name(EventKind::kTaskSpan), "task_span");
}

}  // namespace
}  // namespace gridlb::obs
