// Observability session: configuration + scoped global installation.
//
// Overhead contract (see DESIGN.md §9):
//   * With no Session active every instrumentation site costs one relaxed
//     atomic load and one branch; the engine additionally publishes its
//     clock with one relaxed store per event.  Nothing allocates.
//   * With a Session active, trace events go to bounded per-thread ring
//     buffers with no locking on the steady-state path; registry updates
//     take short uncontended mutexes off the per-event hot path.
//   * Observation never feeds back into scheduling: enabling tracing is
//     bit-for-bit neutral to every experiment result (pinned by
//     tests/obs/determinism_test.cpp).
//
// One Session may be active at a time; construction installs the recorder
// and registry behind the global obs::trace()/obs::registry() accessors
// and destruction uninstalls them, so scoping a Session to a run is all
// the plumbing an experiment needs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace gridlb::obs {

struct ObsConfig {
  /// Record trace events (implied by either trace output path).
  bool trace = false;
  /// Maintain the metrics registry (implied by metrics_json_out).
  bool metrics = false;
  std::size_t ring_capacity = 1u << 18;  ///< events/thread
  std::string trace_out;        ///< Chrome trace-event JSON path ("" = off)
  std::string events_out;       ///< flat JSONL event dump path
  std::string metrics_json_out; ///< registry JSON snapshot path

  /// Continuous profiling: snapshot the registry every `metrics_interval`
  /// sim-seconds (0 = use the 60 s default when a series output or
  /// --progress turns the sampler on).  Each sample is an engine event, so
  /// the cadence is exact in virtual time.
  double metrics_interval = 0.0;
  std::string series_jsonl_out;  ///< time-series JSONL path ("" = off)
  std::string series_csv_out;    ///< time-series CSV path ("" = off)
  bool progress = false;         ///< stderr heartbeat line per sample

  [[nodiscard]] bool trace_enabled() const {
    return trace || !trace_out.empty() || !events_out.empty();
  }
  [[nodiscard]] bool sampler_enabled() const {
    return metrics_interval > 0.0 || !series_jsonl_out.empty() ||
           !series_csv_out.empty() || progress;
  }
  /// Sampling cadence in sim-seconds when the sampler is on.
  [[nodiscard]] double effective_interval() const {
    return metrics_interval > 0.0 ? metrics_interval : 60.0;
  }
  [[nodiscard]] bool metrics_enabled() const {
    return metrics || !metrics_json_out.empty() || sampler_enabled();
  }
  [[nodiscard]] bool enabled() const {
    return trace_enabled() || metrics_enabled();
  }
};

class Session {
 public:
  /// Installs the configured instruments globally.  A config with nothing
  /// enabled yields an inert session (accessors stay null).
  explicit Session(ObsConfig config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const ObsConfig& config() const { return config_; }
  /// Null when the corresponding piece is disabled.
  [[nodiscard]] TraceRecorder* recorder() { return recorder_.get(); }
  [[nodiscard]] MetricsRegistry* registry() { return registry_.get(); }
  [[nodiscard]] Sampler* sampler() { return sampler_.get(); }

  /// Writes every configured output file (Chrome trace, JSONL dump,
  /// metrics JSON).  `resource_names[i]` labels AgentId i+1.  Returns
  /// false if any write failed.  Call after the simulation has quiesced.
  bool export_outputs(const std::vector<std::string>& resource_names);

 private:
  ObsConfig config_;
  std::unique_ptr<TraceRecorder> recorder_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<Sampler> sampler_;
};

}  // namespace gridlb::obs
