#include "obs/exporters.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/log.hpp"

namespace gridlb::obs {

namespace {

constexpr int kGridPid = 1;
constexpr int kGaPid = 2;

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

/// Microsecond timestamp of a virtual-time event.
double ts_us(SimTime at) { return at * 1e6; }

}  // namespace

std::string chrome_trace_json(const TraceSnapshot& snapshot,
                              const std::vector<std::string>& resource_names) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;

  // Name the tracks for every resource that appears in the snapshot.
  std::vector<std::uint64_t> seen;
  for (const TraceEvent& event : snapshot.events) {
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

  for (const TraceEvent& event : snapshot.events) {
    const int tid = static_cast<int>(event.resource);
    switch (event.kind) {
      case EventKind::kTaskSpan: {
        if (!first) os << ',';
        first = false;
        os << "{\"name\":\"task " << event.task << "\",\"cat\":\"task\","
           << "\"ph\":\"X\",\"pid\":" << kGridPid << ",\"tid\":" << tid
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
           << " ga cost\",\"ph\":\"C\",\"pid\":" << kGaPid
           << ",\"tid\":" << tid << ",\"ts\":";
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
           << " queue\",\"ph\":\"C\",\"pid\":" << kGridPid
           << ",\"tid\":" << tid << ",\"ts\":";
        number(os, ts_us(event.at));
        os << ",\"args\":{\"depth\":";
        number(os, event.a);
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
           << (ga ? kGaPid : kGridPid) << ",\"tid\":" << tid << ",\"ts\":";
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
