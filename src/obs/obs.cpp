#include "obs/obs.hpp"

#include <fstream>
#include <stdexcept>

#include "common/assert.hpp"
#include "obs/exporters.hpp"

namespace gridlb::obs {

Session::Session(ObsConfig config) : config_(std::move(config)) {
  // Open every output before the run, so an unwritable path fails now and
  // not after the whole run.  Appending leaves an existing file intact.
  for (const std::string* path :
       {&config_.trace_out, &config_.events_out, &config_.metrics_json_out,
        &config_.series_jsonl_out, &config_.series_csv_out}) {
    if (!path->empty() && !std::ofstream(*path, std::ios::app)) {
      throw std::runtime_error("cannot write " + *path);
    }
  }
  if (config_.trace_enabled()) {
    GRIDLB_REQUIRE(detail::g_recorder == nullptr,
                   "another observability session is already tracing");
    recorder_ = std::make_unique<TraceRecorder>();
    detail::g_recorder = recorder_.get();
  }
  if (config_.metrics_enabled()) {
    GRIDLB_REQUIRE(detail::g_registry == nullptr,
                   "another observability session already has a registry");
    registry_ = std::make_unique<MetricsRegistry>();
    detail::g_registry = registry_.get();
    if (config_.sampler_enabled()) {
      sampler_ = std::make_unique<Sampler>(*registry_);
    }
  }
}

Session::~Session() {
  if (recorder_ != nullptr) detail::g_recorder = nullptr;
  if (registry_ != nullptr) detail::g_registry = nullptr;
}

std::string Session::export_outputs(
    const std::vector<std::string>& resource_names) {
  std::string failed;
  const auto write = [&failed](const std::string& path,
                               const std::string& contents) {
    if (!write_file(path, contents) && failed.empty()) failed = path;
  };
  if (recorder_ != nullptr &&
      (!config_.trace_out.empty() || !config_.events_out.empty())) {
    const TraceSnapshot snapshot = recorder_->snapshot();
    if (!config_.trace_out.empty()) {
      write(config_.trace_out, chrome_trace_json(snapshot, resource_names));
    }
    if (!config_.events_out.empty()) {
      write(config_.events_out, events_jsonl(snapshot));
    }
  }
  if (registry_ != nullptr && !config_.metrics_json_out.empty()) {
    write(config_.metrics_json_out, registry_->json_snapshot());
  }
  if (sampler_ != nullptr) {
    if (!config_.series_jsonl_out.empty()) {
      write(config_.series_jsonl_out, sampler_->series().jsonl());
    }
    if (!config_.series_csv_out.empty()) {
      write(config_.series_csv_out, sampler_->series().csv());
    }
  }
  return failed;
}

}  // namespace gridlb::obs
