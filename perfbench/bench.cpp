// perfbench driver: runs one named workload through the public gridlb API
// for a fixed time, checks every result, and prints one JSON summary line.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//   perfbench --self-test
//
// run.py builds this file into two binaries (untraced and traced, see
// CMakeLists.txt) and turns the summary into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/workload.hpp"
#include "metrics/metrics.hpp"
#include "pace/paper_applications.hpp"
#include "trace.hpp"

namespace {

using gridlb::core::ExperimentConfig;
using gridlb::core::ExperimentResult;

constexpr std::uint64_t kReferenceSeed = 2003;

// ---------------------------------------------------------------------------
// Workloads.  README.md says why each exists.

struct Workload {
  const char* name;
  bool open_loop;
  /// Seeded experiments per run.  The simulated work varies with the seed;
  /// averaging over a batch makes runs with different seeds agree more
  /// closely.  Short workloads take larger batches.
  int batch;
};

constexpr Workload kWorkloads[] = {
    {"exp1_fifo", false, 5},
    {"exp3_agents", false, 3},
    {"overload4x", true, 1},
    {"grid96_shards4", false, 2},
};

/// Distance between the seeds of one batch: large enough that the batches
/// of consecutive run seeds share no experiment.
constexpr std::uint64_t kBatchSeedStride = 7919;

ExperimentConfig make_config(const std::string& name, std::uint64_t seed,
                             int shards_override = 0) {
  ExperimentConfig config;
  if (name == "exp1_fifo") {
    config = gridlb::core::experiment1();
  } else if (name == "exp3_agents") {
    config = gridlb::core::experiment3();
  } else if (name == "overload4x") {
    config = gridlb::core::experiment3();
    config.name = "overload4x";
    config.workload.interval = 0.25;
    config.duration = 150.0;
    config.system.migration.enabled = false;
  } else if (name == "grid96_shards4") {
    gridlb::core::ScenarioSpec spec;
    spec.agent_count = 96;
    spec.fanout = 3;
    spec.requests_per_agent = 25;
    spec.arrival_interval = 0.0;  // automatic: 12 s / agent count
    spec.workload_seed = seed;
    config = gridlb::core::scenario_experiment(spec);
    config.system.sim_shards = 4;
  } else {
    throw std::runtime_error("unknown workload: " + name);
  }
  config.workload.seed = seed;
  if (shards_override > 0) config.system.sim_shards = shards_override;
  return config;
}

// ---------------------------------------------------------------------------
// Output checks.

/// Simulated totals recorded at the reference seed (the seed of the
/// repository's pins).  Any change to them is a behaviour change, not a
/// performance change, and the benchmark refuses to time it.
struct Pin {
  const char* workload;
  double eps;
  double util;
  double beta;
  double finished_at;
  std::uint64_t sim_events;
  std::uint64_t network_messages;
  std::uint64_t tasks_completed;
};

constexpr Pin kPins[] = {
#include "pins.inc"
};

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <class T>
std::uint64_t fnv_value(std::uint64_t h, T value) {
  return fnv(h, &value, sizeof value);
}

/// Digest of everything a run publishes about the simulated grid: every
/// completion record plus the totals.  Equal digests = identical results.
std::uint64_t digest(const ExperimentResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& c : r.completions) {
    h = fnv_value(h, c.task.value());
    h = fnv_value(h, c.resource.value());
    h = fnv_value(h, c.mask);
    h = fnv_value(h, c.submitted);
    h = fnv_value(h, c.start);
    h = fnv_value(h, c.end);
  }
  h = fnv_value(h, r.report.total.advance_time);
  h = fnv_value(h, r.report.total.utilisation);
  h = fnv_value(h, r.report.total.balance);
  h = fnv_value(h, r.finished_at);
  h = fnv_value(h, r.sim_events);
  h = fnv_value(h, r.network_messages);
  h = fnv_value(h, r.network_bytes);
  h = fnv_value(h, r.tasks_completed);
  h = fnv_value(h, r.tasks_dropped);
  return h;
}

std::vector<std::string> check(const std::string& workload, bool open_loop,
                               std::uint64_t seed,
                               const ExperimentResult& r) {
  std::vector<std::string> errors;
  const auto fail = [&errors](const std::string& what) {
    errors.push_back(what);
  };
  if (r.requests_submitted == 0) fail("no request was submitted");
  if (r.tasks_completed + r.tasks_dropped + r.tasks_unfinished !=
      r.requests_submitted) {
    fail("completed + dropped + unfinished != submitted");
  }
  if (r.completions.size() != r.tasks_completed) {
    fail("completion records != tasks completed");
  }
  if (!open_loop && r.tasks_completed != r.requests_submitted) {
    fail("closed loop did not finish every task");
  }
  if (seed != kReferenceSeed) return errors;
  for (const Pin& pin : kPins) {
    if (workload != pin.workload) continue;
    const auto& total = r.report.total;
    if (total.advance_time != pin.eps) fail("eps differs from the pin");
    if (total.utilisation != pin.util) fail("util differs from the pin");
    if (total.balance != pin.beta) fail("beta differs from the pin");
    if (r.finished_at != pin.finished_at) fail("finished_at differs");
    if (r.sim_events != pin.sim_events) fail("sim_events differs");
    if (r.network_messages != pin.network_messages) {
      fail("network_messages differs");
    }
    if (r.tasks_completed != pin.tasks_completed) {
      fail("tasks_completed differs");
    }
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Counters that later API changes may delete: read them only if present.

template <class R>
double memo_hits(const R& r) {
  if constexpr (requires { r.ga_memo_hits; }) {
    return static_cast<double>(r.ga_memo_hits);
  } else {
    return 0.0;
  }
}

template <class R>
double delta_evals(const R& r) {
  if constexpr (requires { r.ga_delta_evals; }) {
    return static_cast<double>(r.ga_delta_evals);
  } else {
    return 0.0;
  }
}

// ---------------------------------------------------------------------------
// Timing helpers.

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Quartiles the way Python's statistics.quantiles(n=4) computes them
/// (exclusive method), with the median as the middle one.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return {v[0], v[0], v[0]};
  const auto at = [&v, n](double p) {
    // Exclusive method: position p·(n+1), 1-based, clamped to the data.
    double pos = p * static_cast<double>(n + 1);
    pos = std::clamp(pos, 1.0, static_cast<double>(n));
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const double frac = pos - static_cast<double>(lo);
    if (lo >= n) return v[n - 1];
    return v[lo - 1] + frac * (v[lo] - v[lo - 1]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// One benchmark run.

struct Options {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
};

/// Set-up samples before each experiment run; one takes tens of
/// microseconds.
constexpr int kSetupReps = 20;

/// Seeds of one run's batch: the run's seed first, so the reference seed's
/// pins are checked whenever a run is given it.
std::vector<std::uint64_t> batch_seeds(std::uint64_t seed, int batch) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < batch; ++i) {
    seeds.push_back(seed + static_cast<std::uint64_t>(i) * kBatchSeedStride);
  }
  return seeds;
}

void print_metric_line(const char* name, const char* unit, double value) {
  std::printf("  %-16s %14.6g %s\n", name, value, unit);
}

int run(const Options& options) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    throw std::runtime_error("unknown workload: " + options.workload);
  }
  const std::vector<std::uint64_t> seeds =
      batch_seeds(options.seed, workload->batch);
  const auto batch = static_cast<double>(seeds.size());

  // Set-up: what a user does before run_experiment — build the experiment
  // (grid and configuration) and generate its workload.  Sampled before
  // every experiment run, so the samples span the whole run like the
  // experiment times do; each experiment's best sample is kept.
  std::vector<ExperimentConfig> configs(seeds.size());
  std::vector<double> best_setups(seeds.size(), 1e300);
  const auto set_up = [&](std::size_t i) {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const double start = now_s();
      configs[i] = make_config(options.workload, seeds[i]);
      const auto catalogue = gridlb::pace::paper_catalogue();
      const auto requests = gridlb::core::generate_workload(
          configs[i].workload, catalogue,
          static_cast<int>(configs[i].system.resources.size()));
      best_setups[i] = std::min(best_setups[i], now_s() - start);
      if (requests.empty()) throw std::runtime_error("empty workload");
    }
  };

  // Timed repetitions of the whole batch.  Each repetition must reproduce
  // the first one's digests exactly.
  std::vector<double> walls;  // per repetition, mean per experiment
  // Per batch experiment: its best wall and CPU time over the repetitions.
  std::vector<double> best_walls(seeds.size(), 1e300);
  std::vector<double> best_cpus(seeds.size(), 1e300);
  std::vector<std::string> errors;
  std::vector<ExperimentResult> results;
  std::vector<std::uint64_t> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Per-layer span metrics, summed over every experiment run.
  std::map<std::string, double> layers;
  const double deadline = now_s() + options.seconds;
  double last_rep = 0.0;
  // Start another repetition only if it is expected to end in time.
  while (walls.empty() || now_s() + last_rep <= deadline) {
    const double rep_start = now_s();
    double wall_sum = 0.0;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      set_up(i);
      perfbench::trace_reset();
      const double cpu_start = cpu_s();
      const double start = now_s();
      ExperimentResult result = gridlb::core::run_experiment(configs[i]);
      const double wall = now_s() - start;
      const double cpu = cpu_s() - cpu_start;
      wall_sum += wall;
      best_walls[i] = std::min(best_walls[i], wall);
      best_cpus[i] = std::min(best_cpus[i], cpu);
      for (const auto& [name, value] : perfbench::trace_collect()) {
        layers[name] += value;
      }
      attempted += result.requests_submitted;
      failed += result.tasks_dropped + result.sends_expired;
      const std::uint64_t d = digest(result);
      if (walls.empty()) {
        for (const std::string& e :
             check(options.workload, workload->open_loop, seeds[i], result)) {
          errors.push_back("seed " + std::to_string(seeds[i]) + ": " + e);
        }
        digests.push_back(d);
        results.push_back(std::move(result));
      } else if (d != digests[i]) {
        errors.push_back("seed " + std::to_string(seeds[i]) +
                         ": a repeated run gave a different result");
      }
    }
    last_rep = now_s() - rep_start;
    walls.push_back(wall_sum / batch);
  }

  const Quartiles wall = quartiles(walls);
  // Mean over the batch's first-repetition results.
  const auto mean = [&results](auto field) {
    double sum = 0.0;
    for (const auto& r : results) sum += field(r);
    return sum / static_cast<double>(results.size());
  };
  std::uint64_t digest_all = 0xcbf29ce484222325ULL;
  for (const std::uint64_t d : digests) digest_all = fnv_value(digest_all, d);

  // End-to-end metrics.  Host times are each experiment's best sample,
  // averaged over the batch: interference from other load on the host only
  // ever slows a run, and comes in episodes of several seconds, so the
  // fastest repetition is the steadiest estimate of the program's own time
  // (the summary prints the median beside it).
  const auto batch_mean = [batch](const std::vector<double>& values) {
    double sum = 0.0;
    for (const double v : values) sum += v;
    return sum / batch;
  };
  const double best_wall = batch_mean(best_walls);
  std::map<std::string, double> metrics;
  metrics["wall_s"] = best_wall;
  metrics["events_per_s"] =
      mean([](const ExperimentResult& r) {
        return static_cast<double>(r.sim_events);
      }) /
      best_wall;
  metrics["cpu_s"] = batch_mean(best_cpus);
  metrics["setup_s"] = batch_mean(best_setups);
  metrics["peak_rss_mb"] = peak_rss_mb();
  metrics["msgs_per_task"] = mean([](const ExperimentResult& r) {
    return static_cast<double>(r.network_messages) /
           static_cast<double>(r.requests_submitted);
  });
  // Grid metrics that are signed, often zero or too seed-dependent to bound
  // (README.md): printed here and reported by the traced run.
  const double beta = mean([](const ExperimentResult& r) {
    return r.report.total.balance * 100.0;
  });
  const double util = mean([](const ExperimentResult& r) {
    return r.report.total.utilisation * 100.0;
  });
  const double eps = mean(
      [](const ExperimentResult& r) { return r.report.total.advance_time; });
  const double shed = mean([](const ExperimentResult& r) { return r.shed_rate; });
  const double failed_frac = mean([](const ExperimentResult& r) {
    return static_cast<double>(r.tasks_dropped + r.sends_expired) /
           static_cast<double>(r.requests_submitted);
  });
  // Pooled over the batch, nearest rank like ExperimentResult::latency_p99.
  std::vector<double> sojourns;
  for (const auto& r : results) {
    for (const auto& c : r.completions) sojourns.push_back(c.end - c.submitted);
  }
  const double p99 = gridlb::metrics::percentile(sojourns, 99.0);

  std::printf("# %s seed=%" PRIu64 " batch=%zu reps=%zu digest=%016" PRIx64
              "\n",
              options.workload.c_str(), options.seed, seeds.size(),
              walls.size(), digest_all);
  std::printf("  wall_s: best per experiment %.6g s; per repetition "
              "quartiles %.6g / %.6g / %.6g s over %zu samples\n",
              best_wall, wall.q1, wall.median, wall.q3, walls.size());
  print_metric_line("wall_s", "s", metrics["wall_s"]);
  print_metric_line("events_per_s", "1/s", metrics["events_per_s"]);
  print_metric_line("cpu_s", "s", metrics["cpu_s"]);
  print_metric_line("setup_s", "s", metrics["setup_s"]);
  print_metric_line("peak_rss_mb", "MB", metrics["peak_rss_mb"]);
  print_metric_line("grid_beta_pct", "%", beta);
  print_metric_line("grid_eps_s", "s", eps);
  print_metric_line("grid_util_pct", "%", util);
  print_metric_line("sojourn_p99_s", "s", p99);
  print_metric_line("shed_rate", "ratio", shed);
  print_metric_line("failed_frac", "ratio", failed_frac);
  print_metric_line("msgs_per_task", "count", metrics["msgs_per_task"]);

  if (perfbench::trace_enabled()) {
    const double runs = static_cast<double>(walls.size()) * batch;
    for (auto& [name, value] : layers) value /= runs;  // mean per run
    layers["grid.beta_pct"] = beta;
    layers["grid.util_pct"] = util;
    layers["grid.eps_s"] = eps;
    layers["grid.sojourn_p99_s"] = p99;
    layers["grid.shed_rate"] = shed;
    layers["grid.failed_frac"] = failed_frac;
    const auto count = [&mean](std::uint64_t ExperimentResult::*field) {
      return mean([field](const ExperimentResult& r) {
        return static_cast<double>(r.*field);
      });
    };
    const auto agents_total = [&mean](auto field) {
      return mean([field](const ExperimentResult& r) {
        double sum = 0.0;
        for (const auto& stats : r.agent_stats) {
          sum += static_cast<double>(field(stats));
        }
        return sum;
      });
    };
    layers["sim.events"] = count(&ExperimentResult::sim_events);
    layers["sim.net.messages"] = count(&ExperimentResult::network_messages);
    layers["sim.net.bytes"] = count(&ExperimentResult::network_bytes);
    const double decodes = count(&ExperimentResult::ga_decodes);
    const double memo = mean([](const ExperimentResult& r) {
      return memo_hits(r);
    });
    const double delta = mean([](const ExperimentResult& r) {
      return delta_evals(r);
    });
    layers["sched.ga.decodes"] = decodes;
    layers["sched.ga.memo_hit_ratio"] =
        decodes + memo > 0 ? memo / (decodes + memo) : 0.0;
    layers["sched.ga.delta_ratio"] = decodes > 0 ? delta / decodes : 0.0;
    layers["sched.fifo.subsets"] = count(&ExperimentResult::fifo_subsets);
    layers["pace.table.reads"] = count(&ExperimentResult::table_reads);
    layers["pace.cache.misses"] = mean([](const ExperimentResult& r) {
      return static_cast<double>(r.cache.misses);
    });
    layers["pace.cache.hit_ratio"] = mean([](const ExperimentResult& r) {
      return r.cache.hit_rate();
    });
    layers["agents.mean_hops"] =
        mean([](const ExperimentResult& r) { return r.mean_hops; });
    layers["agents.forwarded"] = agents_total([](const auto& stats) {
      return stats.forwarded_match + stats.forwarded_up;
    });
    layers["agents.advertisements"] = agents_total(
        [](const auto& stats) { return stats.advertisements_received; });
    layers["agents.pulls"] =
        agents_total([](const auto& stats) { return stats.pulls_sent; });
    layers["agents.migrations"] = count(&ExperimentResult::migrations);
    layers["agents.dropped"] = count(&ExperimentResult::tasks_dropped);
    layers["agents.link.retries"] = count(&ExperimentResult::message_retries);
    layers["core.run.ns"] = best_wall * 1e9;
    layers["sched.ga.cover_frac"] = layers["sched.ga.ns"] / layers["core.run.ns"];
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"reps\": %zu, \"ok\": %s, \"digest\": \"%016" PRIx64
              "\", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"errors\": [",
              options.workload.c_str(), options.seed, walls.size(),
              errors.empty() ? "true" : "false", digest_all, attempted,
              failed);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? ", " : "", errors[i].c_str());
  }
  std::printf("], \"metrics\": {");
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %s", sep, name.c_str(), json_number(value).c_str());
    sep = ", ";
  }
  std::printf("}, \"layers\": {");
  sep = "";
  for (const auto& [name, value] : layers) {
    std::printf("%s\"%s\": %s", sep, name.c_str(), json_number(value).c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return errors.empty() ? 0 : 1;
}

/// `sim_shards` must not change results: grid96_shards4 at 1 shard and at
/// 4 shards must publish the same digest.  Also checks every pin.
int self_test() {
  int failures = 0;
  const auto at = [](int shards) {
    return digest(gridlb::core::run_experiment(
        make_config("grid96_shards4", kReferenceSeed, shards)));
  };
  const std::uint64_t one = at(1);
  const std::uint64_t four = at(4);
  std::printf("shard invariance: 1 shard %016" PRIx64 ", 4 shards %016" PRIx64
              " %s\n",
              one, four, one == four ? "PASS" : "FAIL");
  if (one != four) ++failures;
  for (const Workload& w : kWorkloads) {
    const ExperimentResult r =
        gridlb::core::run_experiment(make_config(w.name, kReferenceSeed));
    const auto errors = check(w.name, w.open_loop, kReferenceSeed, r);
    std::printf("pins %s: %s\n", w.name, errors.empty() ? "PASS" : "FAIL");
    for (const auto& e : errors) std::printf("  %s\n", e.c_str());
    if (!errors.empty()) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

/// Prints the reference-seed totals in pins.inc syntax.
int print_pins() {
  for (const Workload& w : kWorkloads) {
    const ExperimentResult r =
        gridlb::core::run_experiment(make_config(w.name, kReferenceSeed));
    std::printf("    {\"%s\", %a, %a, %a, %a, %" PRIu64 "u, %" PRIu64
                "u, %" PRIu64 "u},\n",
                w.name, r.report.total.advance_time,
                r.report.total.utilisation, r.report.total.balance,
                r.finished_at, r.sim_events, r.network_messages,
                r.tasks_completed);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--self-test") return self_test();
      if (arg == "--print-pins") return print_pins();
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else {
        throw std::runtime_error("unknown argument: " + arg);
      }
    }
    if (options.workload.empty()) throw std::runtime_error("--workload is required");
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
