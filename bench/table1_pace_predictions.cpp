// Reproduces Table 1: PACE-predicted execution times for the seven case-
// study applications on 1..16 SGIOrigin2000 processors, plus the deadline
// domains.  The evaluation engine is driven exactly as the schedulers
// drive it (application model × resource model), so this is an end-to-end
// check of the prediction path, not a dump of constants.

#include <algorithm>
#include <cstdio>

#include "gridlb.hpp"

int main() {
  using namespace gridlb;
  const auto catalogue = pace::paper_catalogue();
  const auto sgi = pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);

  std::printf("Table 1 — predicted runtimes (s) on SGIOrigin2000, "
              "1..16 processors\n\n");
  std::printf("%-10s %-10s", "app", "deadline");
  for (int k = 1; k <= 16; ++k) std::printf(" %4d", k);
  std::printf("\n");

  for (const auto& model : catalogue.all()) {
    const auto domain = model->deadline_domain();
    char bounds[32];
    std::snprintf(bounds, sizeof bounds, "[%.0f,%.0f]", domain.lo, domain.hi);
    std::printf("%-10s %-10s", model->name().c_str(), bounds);
    for (int k = 1; k <= 16; ++k) {
      std::printf(" %4.0f", pace::EvaluationEngine::evaluate(*model, sgi, k));
    }
    std::printf("\n");
  }

  std::printf("\nper-platform scaling of sweep3d (minimum over k):\n");
  for (const auto type : pace::all_hardware_types()) {
    const auto resource = pace::ResourceModel::of(type);
    double best = 1e300;
    for (int k = 1; k <= 16; ++k) {
      best = std::min(best, pace::EvaluationEngine::evaluate(
                                *catalogue.find("sweep3d"), resource, k));
    }
    std::printf("  %-18s factor %.1f  min runtime %5.1f s\n",
                std::string(pace::hardware_name(type)).c_str(),
                resource.factor, best);
  }
  return 0;
}
