// Observability session: configuration + installation for one thread.
//
// Overhead contract (see DESIGN.md §9):
//   * A run executes on the one thread that drives it, so a Session's
//     instruments belong to the thread that constructs it: one trace
//     ring, registry instruments that are plain values, no locks and no
//     atomics.  Another thread, a concurrent core::run_many worker say,
//     sees null accessors unless it installs its own Session.
//   * With no Session installed every instrumentation site costs one
//     thread-local load and one branch.  Nothing allocates.
//   * Observation never feeds back into scheduling: enabling tracing is
//     bit-for-bit neutral to every experiment result (pinned by
//     tests/obs/determinism_test.cpp).
//
// One Session may be active per thread; construction installs the
// recorder and registry behind that thread's obs::trace()/obs::registry()
// accessors and destruction uninstalls them, so scoping a Session to a
// run is all the plumbing an experiment needs.
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
  /// Installs the configured instruments for the calling thread.  A
  /// config with nothing enabled yields an inert session (accessors stay
  /// null).  Throws std::runtime_error, before installing anything, if an
  /// output path cannot be opened for writing.  Destroy it on the thread
  /// that constructed it.
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
  /// metrics JSON, time series).  `resource_names[i]` labels AgentId i+1.
  /// Returns the first path whose write failed, or "" if all were written.
  /// Call after the simulation has quiesced.
  [[nodiscard]] std::string export_outputs(
      const std::vector<std::string>& resource_names);

 private:
  ObsConfig config_;
  std::unique_ptr<TraceRecorder> recorder_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<Sampler> sampler_;
};

}  // namespace gridlb::obs
