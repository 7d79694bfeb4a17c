#include "obs/exporters.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/number.hpp"

namespace gridlb::obs {

namespace {

constexpr int kGridPid = 1;
constexpr int kGaPid = 2;

std::string resource_label(const std::vector<std::string>& names,
                           std::uint64_t id) {
  if (id >= 1 && id <= names.size()) {
    return names[static_cast<std::size_t>(id - 1)];
  }
  // Appended: g++ 12 flags `"R" + std::to_string(id)` with a false
  // -Wrestrict at -O3.
  std::string label = "R";
  label += std::to_string(id);
  return label;
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
        os << exact_number(ts_us(event.a), "null");
        os << ",\"dur\":";
        os << exact_number(ts_us(event.b - event.a), "null");
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
        os << exact_number(ts_us(event.at) + event.extra, "null");
        os << ",\"args\":{\"best\":";
        os << exact_number(event.a, "null");
        os << ",\"mean\":";
        os << exact_number(event.b, "null");
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
        os << exact_number(ts_us(event.at), "null");
        os << ",\"args\":{\"depth\":";
        os << exact_number(event.a, "null");
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
        os << exact_number(ts_us(event.at), "null");
        os << ",\"args\":{\"task\":" << event.task << ",\"a\":";
        os << exact_number(event.a, "null");
        os << ",\"b\":";
        os << exact_number(event.b, "null");
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
    os << exact_number(event.at, "null");
    os << ",\"kind\":\"" << kind_name(event.kind) << '"';
    if (event.task != 0) os << ",\"task\":" << event.task;
    if (event.resource != 0) os << ",\"resource\":" << event.resource;
    os << ",\"a\":";
    os << exact_number(event.a, "null");
    os << ",\"b\":";
    os << exact_number(event.b, "null");
    os << ",\"extra\":" << event.extra << "}\n";
  }
  return os.str();
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();  // a full disk fails the final flush
  return !out.fail();
}

}  // namespace gridlb::obs
