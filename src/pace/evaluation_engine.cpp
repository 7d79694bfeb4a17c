#include "pace/evaluation_engine.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace gridlb::pace {

double EvaluationEngine::evaluate(const ApplicationModel& app,
                                  const ResourceModel& resource, int nproc) {
  GRIDLB_REQUIRE(nproc >= 1, "processor count must be >= 1");
  GRIDLB_REQUIRE(resource.factor > 0.0, "resource factor must be positive");
  return app.reference_time(nproc) * resource.factor;
}

PredictionTable::PredictionTable(const ApplicationCatalogue& catalogue,
                                 const std::vector<ResourceModel>& resources,
                                 int width)
    : apps_(catalogue.all()), width_(width) {
  GRIDLB_REQUIRE(width >= 1, "prediction table width must be >= 1");
  for (const ResourceModel& resource : resources) {
    if (std::find(platforms_.begin(), platforms_.end(), resource) ==
        platforms_.end()) {
      platforms_.push_back(resource);
    }
  }
  values_.reserve(apps_.size() * platforms_.size() *
                  static_cast<std::size_t>(width_));
  for (const ApplicationModelPtr& app : apps_) {
    for (const ResourceModel& platform : platforms_) {
      for (int k = 1; k <= width_; ++k) {
        values_.push_back(EvaluationEngine::evaluate(*app, platform, k));
      }
    }
  }
}

std::span<const double> PredictionTable::row(
    const ApplicationModel& app, const ResourceModel& resource) const {
  // Linear scans: a grid has a handful of applications and platforms (the
  // case study has 7 and 5), so this beats any hash.
  const auto app_it =
      std::find_if(apps_.begin(), apps_.end(),
                   [&app](const ApplicationModelPtr& known) {
                     return known.get() == &app;
                   });
  GRIDLB_REQUIRE(app_it != apps_.end(),
                 "application not in the prediction table: " + app.name());
  const auto platform_it =
      std::find(platforms_.begin(), platforms_.end(), resource);
  GRIDLB_REQUIRE(platform_it != platforms_.end(),
                 "platform not in the prediction table");
  const auto a = static_cast<std::size_t>(app_it - apps_.begin());
  const auto p = static_cast<std::size_t>(platform_it - platforms_.begin());
  const auto width = static_cast<std::size_t>(width_);
  return {values_.data() + (a * platforms_.size() + p) * width, width};
}

double fastest(std::span<const double> row) {
  double best = std::numeric_limits<double>::infinity();
  for (const double exec : row) best = std::min(best, exec);
  return best;
}

double occupancy(std::span<const double> row) {
  double best_exec = std::numeric_limits<double>::infinity();
  int best_k = 1;
  for (std::size_t k = 1; k <= row.size(); ++k) {
    if (row[k - 1] < best_exec) {
      best_exec = row[k - 1];
      best_k = static_cast<int>(k);
    }
  }
  return best_exec * static_cast<double>(best_k) /
         static_cast<double>(row.size());
}

}  // namespace gridlb::pace
