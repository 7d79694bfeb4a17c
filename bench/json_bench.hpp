// Plumbing for a bench's machine-readable `--json <path>` report
// (DESIGN.md §14): a tiny argv extractor that runs before
// benchmark::Initialize, a steady_clock ns-per-op timer that calibrates
// its own batch size, peak RSS (VmHWM), and a minimal ordered JSON
// writer.  micro_obs_overhead is its one user: its report is the CI
// artifact of the overhead gate, which the bench checks itself.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

namespace gridlb::benchjson {

/// Pulls `--json <path>` / `--json=<path>` out of argv (compacting it so
/// the remaining flags can be handed to benchmark::Initialize untouched).
/// Returns the path, or an empty string when the flag is absent.
inline std::string extract_json_path(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return path;
}

/// Peak resident set size of this process in bytes: VmHWM from
/// /proc/self/status.  Linux carries ru_maxrss across exec from the
/// launching process, so a bench started by a larger parent would report
/// the parent's peak; ru_maxrss (KiB) is only the fallback where
/// /proc is unavailable.
inline std::uint64_t peak_rss_bytes() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, status) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(status);
    if (found) return static_cast<std::uint64_t>(kib) * 1024u;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

/// Best-of-`reps` ns-per-op: `fn(iters)` must perform `iters` operations.
/// The batch size is doubled until one batch takes at least
/// `min_batch_seconds`, so short ops are still timed against a clock read
/// that is negligible relative to the batch.
template <typename Fn>
double measure_ns_per_op(Fn&& fn, int reps = 5,
                         double min_batch_seconds = 0.05) {
  using clock = std::chrono::steady_clock;
  const auto time_batch = [&](std::int64_t iters) {
    const auto start = clock::now();
    fn(iters);
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  std::int64_t iters = 1;
  double elapsed = time_batch(iters);
  while (elapsed < min_batch_seconds) {
    iters *= 2;
    elapsed = time_batch(iters);
  }
  double best = elapsed / static_cast<double>(iters);
  for (int r = 1; r < reps; ++r) {
    const double t = time_batch(iters) / static_cast<double>(iters);
    if (t < best) best = t;
  }
  return best * 1e9;
}

/// Minimal ordered JSON emitter — enough for the bench reports (objects,
/// arrays, numbers, strings) without dragging in a JSON library.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void begin_object(const char* key = nullptr) {
    begin_value(key);
    out_ << "{";
    stack_.push_back(false);
  }
  void end_object() { end_container("}"); }

  void begin_array(const char* key = nullptr) {
    begin_value(key);
    out_ << "[";
    stack_.push_back(false);
  }
  void end_array() { end_container("]"); }

  template <typename T>
  void field(const char* key, const T& value) {
    begin_value(key);
    write(value);
  }

 private:
  void begin_value(const char* key) {
    if (!stack_.empty()) {
      if (stack_.back()) out_ << ",";
      stack_.back() = true;
      newline();
    }
    if (key != nullptr) out_ << "\"" << key << "\": ";
  }
  void end_container(const char* close) {
    stack_.pop_back();
    newline();
    out_ << close;
    if (stack_.empty()) out_ << "\n";
  }
  void newline() { out_ << "\n" << std::string(2 * stack_.size(), ' '); }

  void write(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    out_ << buf;
  }
  void write(int v) { out_ << v; }
  void write(std::uint64_t v) { out_ << v; }
  void write(const char* v) { out_ << '"' << v << '"'; }
  void write(const std::string& v) { out_ << '"' << v << '"'; }

  std::ostream& out_;
  std::vector<bool> stack_;  ///< per level: "already wrote a member here"
};

}  // namespace gridlb::benchjson
