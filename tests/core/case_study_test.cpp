#include "core/case_study.hpp"

#include <gtest/gtest.h>

#include <map>

namespace gridlb::core {
namespace {

TEST(CaseStudy, TwelveResourcesSixteenNodesEach) {
  const auto specs = case_study_resources();
  ASSERT_EQ(specs.size(), 12u);
  for (const auto& spec : specs) EXPECT_EQ(spec.node_count, 16);
}

TEST(CaseStudy, NamesAreS1ToS12) {
  const auto specs = case_study_resources();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::string name = "S";
    name += std::to_string(i + 1);
    EXPECT_EQ(specs[i].name, name);
  }
}

TEST(CaseStudy, HardwareMixMatchesFig7) {
  const auto specs = case_study_resources();
  std::map<pace::HardwareType, int> counts;
  for (const auto& spec : specs) ++counts[spec.hardware];
  EXPECT_EQ(counts[pace::HardwareType::kSgiOrigin2000], 2);
  EXPECT_EQ(counts[pace::HardwareType::kSunUltra10], 2);
  EXPECT_EQ(counts[pace::HardwareType::kSunUltra5], 3);
  EXPECT_EQ(counts[pace::HardwareType::kSunUltra1], 3);
  EXPECT_EQ(counts[pace::HardwareType::kSunSparcStation2], 2);
}

TEST(CaseStudy, S1IsTheOnlyHead) {
  const auto specs = case_study_resources();
  int heads = 0;
  for (const auto& spec : specs) {
    if (spec.parent < 0) ++heads;
  }
  EXPECT_EQ(heads, 1);
  EXPECT_LT(specs[0].parent, 0);
}

TEST(CaseStudy, ParentsPrecedeChildren) {
  const auto specs = case_study_resources();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_LT(specs[i].parent, static_cast<int>(i));
  }
}

TEST(CaseStudy, EveryAgentReachableFromHead) {
  const auto specs = case_study_resources();
  // Walking parents from any node must terminate at S1 (index 0).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    int cursor = static_cast<int>(i);
    int steps = 0;
    while (specs[static_cast<std::size_t>(cursor)].parent >= 0) {
      cursor = specs[static_cast<std::size_t>(cursor)].parent;
      ASSERT_LT(++steps, 12);
    }
    EXPECT_EQ(cursor, 0);
  }
}

TEST(CaseStudy, PowerfulMachinesNearTheHead) {
  const auto specs = case_study_resources();
  EXPECT_EQ(specs[0].hardware, pace::HardwareType::kSgiOrigin2000);
  EXPECT_EQ(specs[11].hardware, pace::HardwareType::kSunSparcStation2);
}

}  // namespace
}  // namespace gridlb::core
