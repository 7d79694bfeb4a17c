#include "pace/evaluation_engine.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::pace {
namespace {

TEST(EvaluationEngine, ScalesByResourceFactor) {
  const auto model = make_paper_application("sweep3d");
  const ResourceModel sparc = ResourceModel::of(
      HardwareType::kSunSparcStation2);
  EXPECT_DOUBLE_EQ(EvaluationEngine::evaluate(*model, sparc, 1),
                   50.0 * sparc.factor);
  EXPECT_DOUBLE_EQ(EvaluationEngine::evaluate(*model, sparc, 16),
                   4.0 * sparc.factor);
}

TEST(EvaluationEngine, RejectsBadArguments) {
  const auto model = make_paper_application("fft");
  const auto sgi = ResourceModel::of(HardwareType::kSgiOrigin2000);
  EXPECT_THROW(EvaluationEngine::evaluate(*model, sgi, 0), AssertionError);
  EXPECT_THROW(
      EvaluationEngine::evaluate(*model, ResourceModel{sgi.type, 0.0}, 1),
      AssertionError);
  EXPECT_THROW(
      EvaluationEngine::evaluate(*model, ResourceModel{sgi.type, -2.0}, 1),
      AssertionError);
}

TEST(CacheStats, HitRateMath) {
  CacheStats stats;
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.75);
  EXPECT_EQ(stats.lookups(), 4u);
}

}  // namespace
}  // namespace gridlb::pace
