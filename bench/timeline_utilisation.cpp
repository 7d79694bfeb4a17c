// Timeline view of the three experiments: when does each mechanism act?
//
// Table 3's aggregates hide the dynamics; this bench renders per-resource
// utilisation over 60-second windows for experiments 1–3.  Expected
// pattern: in experiments 1–2 the fast resources (S1–S4) go dark early
// while the slow ones (S8–S12) stay saturated long after the request
// phase ends (the queue tail the paper's −800…−1100 s delays come from);
// in experiment 3 the whole grid shades evenly and the run ends sooner.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "gridlb.hpp"
#include "metrics/time_series.hpp"

int main() {
  using namespace gridlb;
  for (const core::ExperimentConfig& base :
       {core::experiment1(), core::experiment2(), core::experiment3()}) {
    core::ExperimentConfig config = base;
    config.workload.count = 600;
    const core::ExperimentResult result = core::run_experiment(config);

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
  }
  return 0;
}
