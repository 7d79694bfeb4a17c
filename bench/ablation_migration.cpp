// Ablation: threshold-triggered queue migration under sustained load.
//
// The paper balances load purely at submission time: once a request has
// been dispatched to a resource it stays there, however uneven the
// queues later become.  DESIGN.md §16 adds a second chance — an agent
// whose own backlog exceeds an overload watermark re-homes *queued*
// (never running) tasks to a direct neighbour advertising an idle queue.
// This bench drives an open-loop bursty (ON/OFF) campaign at 1×–10× the
// paper's per-agent arrival rate and reports the grid balance β, the
// tail sojourn time and the shed rate with migration off and on.  At low
// rates queues never build and migration is a no-op; past saturation it
// should strictly improve β by draining hot queues into cold ones.
//
// Single-point mode for CI smoke tests:
//   ablation_migration --rate 4 [--agents N --duration T]
// runs one off/on pair and exits non-zero unless migration strictly
// improves β (and actually migrated something).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

struct Point {
  double beta = 0.0;       ///< grid-total balance (eq. 15)
  double latency_p99 = 0.0;
  double advance_p1 = 0.0; ///< 1st-percentile deadline advance (tail)
  double shed = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t completed = 0;
};

/// Open-loop bursty campaign at `rate` × the Fig. 7 per-agent rate.
core::ExperimentConfig rate_config(double rate, int agents, double duration,
                                   bool migrate) {
  core::ScenarioSpec spec;
  spec.agent_count = agents;
  // The paper submits one request per second into the Fig. 7 grid;
  // `rate` multiplies that absolute offered rate.  The default 48-agent
  // grid absorbs roughly 4× of it, so the sweep crosses saturation in
  // the middle instead of starting there.
  spec.arrival_interval = 1.0 / rate;
  core::ExperimentConfig config = core::scenario_experiment(spec);
  config.workload.arrival = core::ArrivalProcess::kOnOff;
  // Enough entries to outlast the window; the open-loop cutoff discards
  // the unsubmitted tail.
  config.workload.count =
      static_cast<int>(duration / spec.arrival_interval) + 64;
  config.duration = duration;
  config.system.migration.enabled = migrate;
  config.name = migrate ? "migration on" : "migration off";
  return config;
}

Point run_point(double rate, int agents, double duration, bool migrate) {
  const core::ExperimentResult result =
      core::run_experiment(rate_config(rate, agents, duration, migrate));
  Point point;
  point.beta = result.report.total.balance;
  point.latency_p99 = result.latency_p99;
  std::vector<double> advances;
  advances.reserve(result.completions.size());
  for (const auto& record : result.completions) {
    advances.push_back(record.deadline - record.end);
  }
  point.advance_p1 = metrics::percentile(std::move(advances), 1.0);
  point.shed = result.shed_rate;
  point.migrations = result.migrations;
  point.completed = result.tasks_completed;
  return point;
}

void print_pair(double rate, const Point& off, const Point& on) {
  std::printf("  %4.0fx  %7.1f %7.1f   %8.1f %8.1f   %8.1f %8.1f   "
              "%5.1f%% %5.1f%%  %6llu\n",
              rate, off.beta * 100.0, on.beta * 100.0, off.latency_p99,
              on.latency_p99, off.advance_p1, on.advance_p1, off.shed * 100.0,
              on.shed * 100.0, static_cast<unsigned long long>(on.migrations));
}

int single_point(double rate, int agents, double duration) {
  const Point off = run_point(rate, agents, duration, false);
  const Point on = run_point(rate, agents, duration, true);
  std::printf("rate=%.0fx agents=%d window=%.0fs: beta %.1f%% -> %.1f%%, "
              "p99 latency %.1fs -> %.1fs, shed %.2f%% -> %.2f%%, "
              "%llu migrations\n",
              rate, agents, duration, off.beta * 100.0, on.beta * 100.0,
              off.latency_p99, on.latency_p99, off.shed * 100.0,
              on.shed * 100.0,
              static_cast<unsigned long long>(on.migrations));
  if (on.migrations == 0) {
    std::fprintf(stderr, "FAIL: migration never triggered\n");
    return 1;
  }
  if (on.beta <= off.beta) {
    std::fprintf(stderr, "FAIL: migration did not improve balance "
                         "(beta %.3f -> %.3f)\n",
                 off.beta, on.beta);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double rate = -1.0;
  int agents = 48;
  double duration = 240.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      rate = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--agents") == 0 && i + 1 < argc) {
      agents = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration = std::atof(argv[++i]);
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--rate X --agents N --duration T]  (no flags: sweep)\n",
          argv[0]);
      return 2;
    }
  }
  if (rate > 0.0) return single_point(rate, agents, duration);

  std::printf("queue-migration sweep (%d-agent grid, ON/OFF bursty "
              "arrivals, %.0fs open-loop window):\n\n",
              agents, duration);
  std::printf("  %5s  %15s   %17s   %17s   %12s  %6s\n", "rate",
              "beta% off/on", "p99 lat(s) off/on", "adv p1(s) off/on",
              "shed off/on", "moved");
  for (const double r : {1.0, 2.0, 4.0, 7.0, 10.0}) {
    const Point off = run_point(r, agents, duration, false);
    const Point on = run_point(r, agents, duration, true);
    print_pair(r, off, on);
  }
  std::printf("\nreading: light load trips the watermarks only on the odd "
              "burst; around the\nsaturation knee re-homing queued work "
              "flattens the hot spots a burst leaves\nbehind — beta "
              "recovers and the latency tail shortens without ever "
              "touching a\nrunning task.  Deep overload tapers off again: "
              "no neighbour stays idle long\nenough to qualify as a "
              "target.\n");
  return 0;
}
