// Deadline study: how deadline tightness shapes grid-level behaviour.
//
// The agent matchmaking rule (eq. 10) dispatches a request to a resource
// only if its estimated completion meets the deadline; as deadlines
// tighten, fewer resources qualify, requests escalate further up the
// hierarchy, and eventually only best-effort fallback dispatch remains.
// This example sweeps a deadline scale factor over the case-study
// workload and reports deadline-met rate, mean discovery hops and
// fallback dispatches.
//
// Run: ./build/examples/deadline_study

#include <cstdio>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

struct SweepPoint {
  double scale;
  double met_rate;
  double mean_hops;
  std::uint64_t fallbacks;
  double advance;
};

SweepPoint run_point(double scale) {
  core::ExperimentConfig config;
  config.system.resources = core::case_study_resources();
  config.workload.count = 180;
  config.workload.deadline_scale = scale;
  const core::ExperimentResult result = core::run_experiment(config);

  const metrics::MetricsRow& total = result.report.total;
  SweepPoint point;
  point.scale = scale;
  point.met_rate = total.tasks > 0 ? static_cast<double>(total.deadlines_met) /
                                         total.tasks
                                   : 0.0;
  point.advance = total.advance_time;
  point.mean_hops = result.mean_hops;
  point.fallbacks = 0;
  for (const agents::AgentStats& stats : result.agent_stats) {
    point.fallbacks += stats.fallback_dispatches;
  }
  return point;
}

}  // namespace

int main() {
  std::printf("deadline sweep over the case-study grid (180 requests):\n\n");
  std::printf("  scale   met%%   eps(s)   hops  fallbacks\n");
  for (const double scale : {2.0, 1.5, 1.0, 0.75, 0.5, 0.25}) {
    const SweepPoint point = run_point(scale);
    std::printf("  %5.2f  %5.1f  %7.1f  %5.2f  %9llu\n", point.scale,
                point.met_rate * 100.0, point.advance, point.mean_hops,
                static_cast<unsigned long long>(point.fallbacks));
  }
  std::printf("\ntighter deadlines -> fewer matching resources -> more "
              "escalation and fallback dispatch.\n");
  return 0;
}
