#include "core/workload.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/assert.hpp"
#include "common/number.hpp"
#include "common/rng.hpp"

namespace gridlb::core {

namespace {

/// Submission times for every process except kTrace; always non-decreasing.
std::vector<SimTime> arrival_times(const WorkloadConfig& config) {
  const auto count = static_cast<std::size_t>(config.count);
  std::vector<SimTime> at;
  at.reserve(count);
  switch (config.arrival) {
    case ArrivalProcess::kUniform:
      for (std::size_t i = 0; i < count; ++i) {
        at.push_back(kWorkloadStart +
                     static_cast<double>(i) * config.interval);
      }
      break;
    case ArrivalProcess::kOnOff: {
      // Deterministic square wave anchored at kWorkloadStart: arrivals
      // during ON phases at duty-scaled spacing, silence during OFF phases.
      // The cycle average recovers the nominal 1/interval rate.
      constexpr double cycle = kBurstOn + kBurstOff;
      const double spacing = config.interval * kBurstOn / cycle;
      double t = 0.0;  // relative to kWorkloadStart
      for (std::size_t i = 0; i < count; ++i) {
        const double pos = std::fmod(t, cycle);
        if (pos >= kBurstOn) t += cycle - pos;  // skip the OFF tail
        at.push_back(kWorkloadStart + t);
        t += spacing;
      }
      break;
    }
    case ArrivalProcess::kTrace:
      GRIDLB_REQUIRE(false, "trace arrivals have no generated times");
  }
  return at;
}

std::vector<RequestSpec> replay_trace(const WorkloadConfig& config,
                                      const pace::ApplicationCatalogue&
                                          catalogue,
                                      int agent_count) {
  std::ifstream in(config.trace_path);
  GRIDLB_REQUIRE(in.good(),
                 "cannot open arrival trace: " + config.trace_path);
  std::ostringstream text;
  text << in.rdbuf();
  std::vector<RequestSpec> workload = parse_workload_jsonl(text.str());
  for (const RequestSpec& spec : workload) {
    GRIDLB_REQUIRE(
        spec.agent_index >= 0 && spec.agent_index < agent_count,
        "trace entry names agent index " + std::to_string(spec.agent_index) +
            " but the grid has " + std::to_string(agent_count) +
            " agents: " + config.trace_path);
    GRIDLB_REQUIRE(catalogue.find(spec.app_name) != nullptr,
                   "trace entry names unknown application '" + spec.app_name +
                       "': " + config.trace_path);
  }
  return workload;
}

}  // namespace

std::string arrival_process_name(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kUniform: return "uniform";
    case ArrivalProcess::kOnOff: return "onoff";
    case ArrivalProcess::kTrace: return "trace";
  }
  GRIDLB_REQUIRE(false, "unknown arrival process");
}

ArrivalProcess arrival_process_from_name(const std::string& name) {
  if (name == "uniform") return ArrivalProcess::kUniform;
  if (name == "onoff") return ArrivalProcess::kOnOff;
  if (name == "trace") return ArrivalProcess::kTrace;
  GRIDLB_REQUIRE(false, "unknown arrival process: " + name +
                            " (expected uniform, onoff or trace)");
}

void validate_workload(const WorkloadConfig& config) {
  GRIDLB_REQUIRE(config.count >= 0, "negative request count");
  GRIDLB_REQUIRE(config.deadline_scale > 0.0,
                 "deadline scale must be positive");
  if (config.arrival == ArrivalProcess::kTrace) {
    // Timing replays the file verbatim; interval/seed are irrelevant.
    GRIDLB_REQUIRE(!config.trace_path.empty(),
                   "trace arrivals need a workload file: pass "
                   "--arrival-trace FILE (a JSONL export written by "
                   "--workload-out)");
    return;
  }
  GRIDLB_REQUIRE(
      config.interval > 0.0,
      "arrival interval must be > 0 (got " + exact_number(config.interval) +
          "): it is the mean seconds between submissions for the '" +
          arrival_process_name(config.arrival) +
          "' process.  Pass a positive --arrival-interval (0 = auto is "
          "resolved only for generated grids, --grid-agents)");
}

std::vector<RequestSpec> generate_workload(
    const WorkloadConfig& config, const pace::ApplicationCatalogue& catalogue,
    int agent_count) {
  validate_workload(config);
  GRIDLB_REQUIRE(agent_count >= 1, "need at least one agent");
  GRIDLB_REQUIRE(catalogue.size() >= 1, "need at least one application");

  if (config.arrival == ArrivalProcess::kTrace) {
    return replay_trace(config, catalogue, agent_count);
  }

  const std::vector<SimTime> at = arrival_times(config);
  Rng rng(config.seed);
  std::vector<RequestSpec> out;
  out.reserve(static_cast<std::size_t>(config.count));
  for (int i = 0; i < config.count; ++i) {
    RequestSpec spec;
    spec.at = at[static_cast<std::size_t>(i)];
    spec.agent_index = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(agent_count)));
    const auto& app = catalogue.all()[static_cast<std::size_t>(
        rng.next_below(catalogue.size()))];
    spec.app_name = app->name();
    const pace::DeadlineDomain domain = app->deadline_domain();
    spec.deadline_offset =
        rng.uniform(domain.lo, domain.hi) * config.deadline_scale;
    out.push_back(std::move(spec));
  }
  return out;
}

std::string workload_to_jsonl(const std::vector<RequestSpec>& workload) {
  std::ostringstream os;
  for (const RequestSpec& spec : workload) {
    os << "{\"at\":" << exact_number(spec.at)
       << ",\"agent\":" << spec.agent_index << ",\"app\":\"" << spec.app_name
       << "\",\"deadline_offset\":" << exact_number(spec.deadline_offset)
       << "}\n";
  }
  return os.str();
}

namespace {

/// Extracts the numeric value following `"key":` on `line`; fails with a
/// line-numbered message when the key is missing, non-numeric or not
/// finite (an overflowing literal such as 1e400 parses as infinity).
double json_number(const std::string& line, const char* key,
                   std::size_t line_number) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  GRIDLB_REQUIRE(pos != std::string::npos,
                 "workload trace line " + std::to_string(line_number) +
                     " lacks \"" + key + "\": " + line);
  const char* begin = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  GRIDLB_REQUIRE(end != begin,
                 "workload trace line " + std::to_string(line_number) +
                     " has a non-numeric \"" + key + "\": " + line);
  GRIDLB_REQUIRE(std::isfinite(value),
                 "workload trace line " + std::to_string(line_number) +
                     " has a non-finite \"" + key + "\": " + line);
  return value;
}

std::string json_string(const std::string& line, const char* key,
                        std::size_t line_number) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t pos = line.find(needle);
  GRIDLB_REQUIRE(pos != std::string::npos,
                 "workload trace line " + std::to_string(line_number) +
                     " lacks \"" + key + "\": " + line);
  const std::size_t begin = pos + needle.size();
  const std::size_t end = line.find('"', begin);
  GRIDLB_REQUIRE(end != std::string::npos,
                 "workload trace line " + std::to_string(line_number) +
                     " has an unterminated \"" + key + "\": " + line);
  return line.substr(begin, end - begin);
}

}  // namespace

std::vector<RequestSpec> parse_workload_jsonl(const std::string& text) {
  std::vector<RequestSpec> out;
  std::istringstream in(text);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    RequestSpec spec;
    spec.at = json_number(line, "at", line_number);
    // Range-checked before the cast: converting a double outside int's
    // range is undefined behaviour.
    const double agent = json_number(line, "agent", line_number);
    GRIDLB_REQUIRE(agent >= 0.0 &&
                       agent <= std::numeric_limits<int>::max() &&
                       agent == std::floor(agent),
                   "workload trace line " + std::to_string(line_number) +
                       " has an \"agent\" that is not an index in 0.." +
                       std::to_string(std::numeric_limits<int>::max()) +
                       ": " + line);
    spec.agent_index = static_cast<int>(agent);
    spec.app_name = json_string(line, "app", line_number);
    spec.deadline_offset = json_number(line, "deadline_offset", line_number);
    GRIDLB_REQUIRE(spec.at >= 0.0,
                   "workload trace line " + std::to_string(line_number) +
                       " has a negative submission time");
    GRIDLB_REQUIRE(spec.deadline_offset >= 0.0,
                   "workload trace line " + std::to_string(line_number) +
                       " has a negative \"deadline_offset\" (the deadline "
                       "would precede the submission)");
    GRIDLB_REQUIRE(out.empty() || spec.at >= out.back().at,
                   "workload trace line " + std::to_string(line_number) +
                       " goes back in time (submissions must be "
                       "non-decreasing)");
    out.push_back(std::move(spec));
  }
  return out;
}

}  // namespace gridlb::core
