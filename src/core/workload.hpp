// The case-study workload generator (paper §4.1) and its open-loop
// extensions.
//
// "During each experiment, requests for one of the seven test applications
// are sent at one second intervals to randomly selected agents.  The
// required execution time deadline for the application is also selected
// randomly from a given domain [Table 1].  The request phase of each
// experiment lasts for ten minutes during which 600 task execution
// requests are sent out to the agents.  While the selection of agents,
// applications and requirements are random, the seed is set to the same
// so that the workload for each experiment is identical."
//
// The paper's workload is that fixed uniform batch; production traffic is
// open-loop and bursty.  `ArrivalProcess` makes the submission *timing*
// pluggable while the per-request draws (entry agent, application,
// deadline) stay on the one random stream, so the default uniform process
// remains bit-identical to the historical generator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "pace/application_model.hpp"

namespace gridlb::core {

/// One pre-generated request.
struct RequestSpec {
  SimTime at = 0.0;          ///< submission time
  int agent_index = 0;       ///< entry agent (index into the resource list)
  std::string app_name;
  double deadline_offset = 0.0;  ///< δ − submission time, seconds

  bool operator==(const RequestSpec&) const = default;
};

/// How submission times are generated.  See WorkloadConfig::interval for
/// the per-process interval semantics.
enum class ArrivalProcess : std::uint8_t {
  kUniform,  ///< exact 1/interval spacing (the paper's batch; the default)
  kOnOff,    ///< square-wave bursts: ON phases at duty-scaled spacing
  kTrace,    ///< replay a JSONL workload export verbatim
};

/// Canonical CLI spelling: "uniform" | "onoff" | "trace".
[[nodiscard]] std::string arrival_process_name(ArrivalProcess process);

/// Inverse of arrival_process_name; anything else fails with a message
/// listing the valid values.
[[nodiscard]] ArrivalProcess arrival_process_from_name(
    const std::string& name);

/// Time of the first generated submission, seconds.
inline constexpr double kWorkloadStart = 1.0;
/// kOnOff: seconds of each ON (bursting) phase.
inline constexpr double kBurstOn = 30.0;
/// kOnOff: seconds of each silent OFF phase.
inline constexpr double kBurstOff = 90.0;
static_assert(kWorkloadStart >= 0.0, "submissions cannot precede t = 0");
static_assert(kBurstOn > 0.0 && kBurstOff >= 0.0,
              "an on/off cycle needs a bursting phase");

struct WorkloadConfig {
  int count = 600;
  /// Mean seconds between submissions.  Exact semantics depend on the
  /// arrival process:
  ///   kUniform — exact spacing: at_i = kWorkloadStart + i·interval;
  ///   kOnOff   — cycle-averaged: ON-phase arrivals are spaced
  ///              interval·kBurstOn/(kBurstOn+kBurstOff) apart and OFF
  ///              phases are silent, so the offered rate averages
  ///              1/interval over each cycle;
  ///   kTrace   — ignored (the trace's timestamps replay verbatim).
  /// Must be > 0 for every process except kTrace; `validate_workload`
  /// rejects anything else with an actionable message.
  double interval = 1.0;
  std::uint64_t seed = 2003;
  /// Deadline tightness: the Table 1 deadline drawn for each request is
  /// multiplied by this factor (<1 squeezes deadlines, >1 relaxes them).
  /// 1.0 leaves the case-study workload bit-identical.  Ignored by kTrace
  /// (trace deadline offsets are already final and replay verbatim).
  double deadline_scale = 1.0;
  /// Submission-timing process.  Both generated processes are
  /// deterministic functions of the request index, so switching between
  /// them never perturbs the per-request agent/application/deadline draws.
  ArrivalProcess arrival = ArrivalProcess::kUniform;
  /// kTrace: path of a JSONL workload export (see workload_to_jsonl).
  std::string trace_path;
};

/// Validates `config`, throwing AssertionError with an actionable message
/// (which flag to pass, what the value means for the selected arrival
/// process).  `generate_workload` calls this, so an invalid config can
/// never silently reach generation; CLI/config boundaries call it early
/// to fail before any expensive setup.
void validate_workload(const WorkloadConfig& config);

/// Deterministically generates the workload; the same seed yields the same
/// sequence regardless of scheduler/agent configuration.
[[nodiscard]] std::vector<RequestSpec> generate_workload(
    const WorkloadConfig& config, const pace::ApplicationCatalogue& catalogue,
    int agent_count);

/// Serialises a workload as JSONL, one request per line:
///   {"at":12.5,"agent":3,"app":"sweep3d","deadline_offset":100}
/// Numbers print with round-trip precision, so export → kTrace replay
/// reproduces the workload bit-for-bit.
[[nodiscard]] std::string workload_to_jsonl(
    const std::vector<RequestSpec>& workload);

/// Inverse of workload_to_jsonl.  Rejects malformed lines and
/// out-of-order timestamps with an actionable message; agent/application
/// validity is checked against the catalogue when the trace is replayed
/// through generate_workload.
[[nodiscard]] std::vector<RequestSpec> parse_workload_jsonl(
    const std::string& text);

}  // namespace gridlb::core
