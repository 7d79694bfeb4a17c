#include "obs/exporters.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "common/log.hpp"

namespace gridlb::obs {

namespace {

constexpr int kGridPid = 1;
constexpr int kGaPid = 2;
// Per-shard engine telemetry counters (kShardSample) live in their own
// process so Perfetto shows one "engine shards" group with a counter
// track per shard.
constexpr int kShardsPid = 3;
// Sharded runs: each engine shard renders as its own process so the
// per-shard interleaving is visible at a glance.  Shard stamps are
// 1-based (0 = unsharded), so shard index s maps to pid 10 + s.
constexpr int kShardPidBase = 10;

/// Grid-side pid: the executing shard's process on sharded runs, the
/// classic single "grid resources" process otherwise.  Events recorded
/// off-engine (shard stamp 0) stay on the classic pids either way, which
/// also keeps an unsharded run's output byte-identical to before.
int grid_pid(const TraceEvent& event) {
  return event.shard != 0 ? kShardPidBase + event.shard - 1 : kGridPid;
}
int ga_pid(const TraceEvent& event) {
  return event.shard != 0 ? kShardPidBase + event.shard - 1 : kGaPid;
}
/// Inside a shard process the grid and GA tracks share one tid space;
/// GA tracks are offset so they stay distinct threads.
int ga_tid(const TraceEvent& event) {
  const int tid = static_cast<int>(event.resource);
  return event.shard != 0 ? 1000 + tid : tid;
}

void number(std::ostringstream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  os << buffer;
}

std::string resource_label(const std::vector<std::string>& names,
                           std::uint64_t id) {
  if (id >= 1 && id <= names.size()) {
    return names[static_cast<std::size_t>(id - 1)];
  }
  return "R" + std::to_string(id);
}

void metadata(std::ostringstream& os, const char* what, int pid, int tid,
              const std::string& name, bool& first) {
  if (!first) os << ',';
  first = false;
  os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << name << "\"}}";
}

[[nodiscard]] bool is_ga_kind(EventKind kind) {
  return kind == EventKind::kGaRunStarted ||
         kind == EventKind::kGaGeneration ||
         kind == EventKind::kGaRunFinished;
}

/// Microsecond timestamp of a virtual-time event.
double ts_us(SimTime at) { return at * 1e6; }

}  // namespace

std::string chrome_trace_json(const TraceSnapshot& snapshot,
                              const std::vector<std::string>& resource_names) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;

  // Name the tracks for every resource that appears in the snapshot, and
  // collect the shard layout of a sharded run: which shard stamps occur,
  // and which (shard, resource) tracks need names.
  std::vector<std::uint64_t> seen;
  std::set<int> shard_stamps;
  std::set<int> sample_stamps;
  std::set<std::pair<int, std::uint64_t>> shard_tracks;  // grid-side
  std::set<std::pair<int, std::uint64_t>> shard_ga_tracks;
  for (const TraceEvent& event : snapshot.events) {
    if (event.kind == EventKind::kShardSample) {
      sample_stamps.insert(static_cast<int>(event.extra));
      continue;
    }
    if (event.shard != 0) {
      shard_stamps.insert(event.shard);
      if (event.resource != 0) {
        (is_ga_kind(event.kind) ? shard_ga_tracks : shard_tracks)
            .emplace(event.shard, event.resource);
      }
    }
    if (event.resource == 0) continue;
    if (std::find(seen.begin(), seen.end(), event.resource) != seen.end()) {
      continue;
    }
    seen.push_back(event.resource);
  }
  std::sort(seen.begin(), seen.end());
  metadata(os, "process_name", kGridPid, 0, "grid resources", first);
  metadata(os, "process_name", kGaPid, 0, "ga scheduling", first);
  for (const std::uint64_t id : seen) {
    const std::string label = resource_label(resource_names, id);
    const int tid = static_cast<int>(id);
    metadata(os, "thread_name", kGridPid, tid, label, first);
    metadata(os, "thread_name", kGaPid, tid, label + " GA", first);
  }
  // Sharded layout (empty on unsharded runs, leaving the classic output
  // byte-identical): one process per engine shard, plus the "engine
  // shards" counter process when sampler telemetry is present.
  for (const int stamp : shard_stamps) {
    metadata(os, "process_name", kShardPidBase + stamp - 1, 0,
             "shard " + std::to_string(stamp - 1), first);
  }
  for (const auto& [stamp, resource] : shard_tracks) {
    metadata(os, "thread_name", kShardPidBase + stamp - 1,
             static_cast<int>(resource), resource_label(resource_names, resource),
             first);
  }
  for (const auto& [stamp, resource] : shard_ga_tracks) {
    metadata(os, "thread_name", kShardPidBase + stamp - 1,
             1000 + static_cast<int>(resource),
             resource_label(resource_names, resource) + " GA", first);
  }
  if (!sample_stamps.empty()) {
    metadata(os, "process_name", kShardsPid, 0, "engine shards", first);
    for (const int index : sample_stamps) {
      metadata(os, "thread_name", kShardsPid, index + 1,
               "shard " + std::to_string(index), first);
    }
  }

  for (const TraceEvent& event : snapshot.events) {
    const int tid = static_cast<int>(event.resource);
    switch (event.kind) {
      case EventKind::kTaskSpan: {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"task " << event.task << "\",\"cat\":\"task\","
           << "\"ph\":\"X\",\"pid\":" << grid_pid(event) << ",\"tid\":" << tid
           << ",\"ts\":";
        number(os, ts_us(event.a));
        os << ",\"dur\":";
        number(os, ts_us(event.b - event.a));
        os << ",\"args\":{\"task\":" << event.task
           << ",\"nodes\":" << event.extra << "}}";
        break;
      }
      case EventKind::kGaGeneration: {
        // One counter sample per generation; the +1 µs-per-generation
        // offset spreads an (instantaneous) GA run into a visible curve.
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\""
           << resource_label(resource_names, event.resource)
           << " ga cost\",\"ph\":\"C\",\"pid\":" << ga_pid(event)
           << ",\"tid\":" << ga_tid(event) << ",\"ts\":";
        number(os, ts_us(event.at) + event.extra);
        os << ",\"args\":{\"best\":";
        number(os, event.a);
        os << ",\"mean\":";
        number(os, event.b);
        os << "}}";
        break;
      }
      case EventKind::kQueueDepth: {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\""
           << resource_label(resource_names, event.resource)
           << " queue\",\"ph\":\"C\",\"pid\":" << grid_pid(event)
           << ",\"tid\":" << tid << ",\"ts\":";
        number(os, ts_us(event.at));
        os << ",\"args\":{\"depth\":";
        number(os, event.a);
        os << "}}";
        break;
      }
      case EventKind::kShardSample: {
        // Per-shard engine telemetry: two counter tracks per shard under
        // the "engine shards" process (events executed and barrier-wait
        // milliseconds per sampling interval).  `extra` carries the
        // 0-based shard index being described — the recorder stamps
        // `.shard` with whichever shard ran the sampler tick instead.
        const int index = static_cast<int>(event.extra);
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"shard " << index
           << " events\",\"ph\":\"C\",\"pid\":" << kShardsPid
           << ",\"tid\":" << index + 1 << ",\"ts\":";
        number(os, ts_us(event.at));
        os << ",\"args\":{\"events\":";
        number(os, event.a);
        os << "}},{\"name\":\"shard " << index
           << " barrier_ms\",\"ph\":\"C\",\"pid\":" << kShardsPid
           << ",\"tid\":" << index + 1 << ",\"ts\":";
        number(os, ts_us(event.at));
        os << ",\"args\":{\"ms\":";
        number(os, event.b / 1e6);
        os << "}}";
        break;
      }
      default: {
        // Everything else renders as a thread-scoped instant on the
        // involved resource's track (GA run markers on the GA process).
        const bool ga = event.kind == EventKind::kGaRunStarted ||
                        event.kind == EventKind::kGaRunFinished;
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"" << kind_name(event.kind)
           << "\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":"
           << (ga ? ga_pid(event) : grid_pid(event))
           << ",\"tid\":" << (ga ? ga_tid(event) : tid) << ",\"ts\":";
        number(os, ts_us(event.at));
        os << ",\"args\":{\"task\":" << event.task << ",\"a\":";
        number(os, event.a);
        os << ",\"b\":";
        number(os, event.b);
        os << ",\"extra\":" << event.extra << "}}";
        break;
      }
    }
  }
  os << "],\"otherData\":{\"recorded\":" << snapshot.recorded
     << ",\"dropped\":" << snapshot.dropped << "}}";
  return os.str();
}

std::string events_jsonl(const TraceSnapshot& snapshot) {
  std::ostringstream os;
  for (const TraceEvent& event : snapshot.events) {
    os << "{\"t\":";
    number(os, event.at);
    os << ",\"kind\":\"" << kind_name(event.kind) << '"';
    if (event.task != 0) os << ",\"task\":" << event.task;
    if (event.resource != 0) os << ",\"resource\":" << event.resource;
    // 0-based shard index; absent on unsharded runs (stamp 0), which
    // keeps the classic JSONL byte-identical.
    if (event.shard != 0) os << ",\"shard\":" << event.shard - 1;
    os << ",\"a\":";
    number(os, event.a);
    os << ",\"b\":";
    number(os, event.b);
    os << ",\"extra\":" << event.extra << "}\n";
  }
  return os.str();
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) out << contents;
  if (!out) {
    log::warn("failed to write ", path);
    return false;
  }
  return true;
}

}  // namespace gridlb::obs
