// Timeline view of the three experiments: when does each mechanism act?
//
// Table 3's aggregates hide the dynamics; this bench renders per-resource
// utilisation over 60-second windows for experiments 1–3.  Expected
// pattern: in experiments 1–2 the fast resources (S1–S4) go dark early
// while the slow ones (S8–S12) stay saturated long after the request
// phase ends (the queue tail the paper's −800…−1100 s delays come from);
// in experiment 3 the whole grid shades evenly and the run ends sooner.

#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "gridlb.hpp"
#include "metrics/time_series.hpp"

int main() {
  using namespace gridlb;
  std::vector<sched::CompletionRecord> last_records;
  std::vector<std::pair<std::string, int>> last_resources;
  double last_end = 0.0;
  for (const core::ExperimentConfig& base :
       {core::experiment1(), core::experiment2(), core::experiment3()}) {
    core::ExperimentConfig config = base;
    config.workload.count = 600;
    core::ExperimentResult result = core::run_experiment(config);

    std::vector<std::pair<std::string, int>> resources;
    for (const agents::ResourceSpec& spec : config.system.resources) {
      resources.emplace_back(spec.name, spec.node_count);
    }
    const metrics::Timeline timeline = metrics::build_timeline(
        result.completions, resources, 60.0, result.report.window_start,
        result.report.window_end);
    std::printf("\n%s — %zu windows of 60 s\n", config.name.c_str(),
                timeline.buckets());
    std::printf("%s", metrics::render_timeline(timeline).c_str());

    last_records = std::move(result.completions);
    last_resources = std::move(resources);
    last_end = result.report.window_end;
  }

  // Build-cost check: the builder visits only the buckets each record
  // overlaps, so shrinking the window (more buckets) scales the cost with
  // the extra buckets actually touched — not records × total buckets, the
  // quadratic blow-up the full-scan implementation had.
  std::printf("\ntimeline build cost (%zu records, experiment 3):\n",
              last_records.size());
  for (const double window : {600.0, 60.0, 6.0, 0.6}) {
    const auto t0 = std::chrono::steady_clock::now();
    const metrics::Timeline timeline = metrics::build_timeline(
        last_records, last_resources, window, 0.0, last_end);
    const auto t1 = std::chrono::steady_clock::now();
    const double micros =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    std::printf("  window %6.1fs -> %6zu buckets: %8.1f us (%5.2f us/record)\n",
                window, timeline.buckets(), micros,
                micros / static_cast<double>(last_records.size()));
  }
  return 0;
}
