#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "pace/evaluation_engine.hpp"
#include "pace/paper_applications.hpp"

namespace gridlb::pace {
namespace {

struct TableFixture : ::testing::Test {
  ApplicationCatalogue catalogue = paper_catalogue();
  ResourceModel sgi = ResourceModel::of(HardwareType::kSgiOrigin2000);

  static std::vector<ResourceModel> every_platform() {
    std::vector<ResourceModel> platforms;
    for (const HardwareType type : all_hardware_types()) {
      platforms.push_back(ResourceModel::of(type));
    }
    return platforms;
  }
};

TEST_F(TableFixture, EveryEntryBitEqualsEngine) {
  // Width 32 runs past every model's max_procs(), so the saturating clamp
  // is covered too; the custom factor stands for a user-defined platform.
  std::vector<ResourceModel> platforms = every_platform();
  platforms.push_back(ResourceModel{HardwareType::kSunUltra10, 9.0});
  const int width = 32;
  const PredictionTable table(catalogue, platforms, width);
  ASSERT_EQ(table.width(), width);
  for (const ApplicationModelPtr& app : catalogue.all()) {
    for (const ResourceModel& platform : platforms) {
      const auto row = table.row(*app, platform);
      ASSERT_EQ(row.size(), static_cast<std::size_t>(width));
      for (int k = 1; k <= width; ++k) {
        EXPECT_EQ(row[static_cast<std::size_t>(k - 1)],
                  EvaluationEngine::evaluate(*app, platform, k))
            << app->name() << " k=" << k << " factor=" << platform.factor;
      }
    }
  }
}

TEST_F(TableFixture, RowMatchesEngineBitForBit) {
  const PredictionTable table(catalogue, {sgi}, 16);
  const ApplicationModel& app = *catalogue.all()[0];
  const auto row = table.row(app, sgi);
  ASSERT_EQ(row.size(), 16u);
  for (int k = 1; k <= 16; ++k) {
    EXPECT_EQ(row[static_cast<std::size_t>(k - 1)],
              EvaluationEngine::evaluate(app, sgi, k));
  }
  EXPECT_EQ(table.width(), 16);
}

TEST_F(TableFixture, RepeatedReadsShareOneEntry) {
  const PredictionTable table(catalogue, {sgi}, 16);
  const ApplicationModel& jacobi = *catalogue.find("jacobi");
  const auto first = table.row(jacobi, sgi);
  const auto second = table.row(jacobi, sgi);
  EXPECT_EQ(&first[7], &second[7]);
  EXPECT_EQ(first[7], second[7]);
  // Reads evaluate nothing: the entry count is fixed at construction.
  EXPECT_EQ(table.entries(), catalogue.size() * 16);
}

TEST_F(TableFixture, DistinguishesProcCounts) {
  const PredictionTable table(catalogue, {sgi}, 16);
  const ApplicationModel& jacobi = *catalogue.find("jacobi");
  const auto row = table.row(jacobi, sgi);
  ASSERT_EQ(row.size(), 16u);
  for (int k = 1; k <= 16; ++k) {
    EXPECT_EQ(row[static_cast<std::size_t>(k - 1)],
              EvaluationEngine::evaluate(jacobi, sgi, k))
        << "k=" << k;
  }
  EXPECT_NE(row[0], row[3]);
}

TEST_F(TableFixture, DistinguishesResources) {
  const auto ultra10 = ResourceModel::of(HardwareType::kSunUltra10);
  const ResourceModel custom{HardwareType::kSunUltra10, 9.0};
  const PredictionTable table(catalogue, {sgi, ultra10, custom}, 4);
  // Same type with a different factor is a platform of its own.
  EXPECT_EQ(table.entries(), catalogue.size() * 3 * 4);
  const ApplicationModel& jacobi = *catalogue.find("jacobi");
  for (const ResourceModel& platform : {sgi, ultra10, custom}) {
    EXPECT_EQ(table.row(jacobi, platform)[3],
              EvaluationEngine::evaluate(jacobi, platform, 4))
        << "factor=" << platform.factor;
  }
  EXPECT_NE(table.row(jacobi, ultra10)[3], table.row(jacobi, custom)[3]);
}

TEST_F(TableFixture, DistinguishesApplications) {
  const PredictionTable table(catalogue, {sgi}, 4);
  const ApplicationModel& jacobi = *catalogue.find("jacobi");
  const ApplicationModel& fft = *catalogue.find("fft");
  EXPECT_NE(table.row(jacobi, sgi).data(), table.row(fft, sgi).data());
  EXPECT_EQ(table.row(jacobi, sgi)[3],
            EvaluationEngine::evaluate(jacobi, sgi, 4));
  EXPECT_EQ(table.row(fft, sgi)[3], EvaluationEngine::evaluate(fft, sgi, 4));
}

TEST_F(TableFixture, BuildsEachRowOnce) {
  // Duplicate platforms (one per resource of a grid) fold into one row set.
  const auto ultra5 = ResourceModel::of(HardwareType::kSunUltra5);
  const PredictionTable table(catalogue, {sgi, ultra5, sgi, ultra5, sgi}, 16);
  EXPECT_EQ(table.entries(), catalogue.size() * 2 * 16);
  const ApplicationModel& app = *catalogue.all()[0];
  EXPECT_EQ(table.row(app, sgi).data(), table.row(app, sgi).data());
  EXPECT_NE(table.row(app, sgi).data(), table.row(app, ultra5).data());
}

TEST_F(TableFixture, RejectsUnknownAppOrPlatform) {
  const PredictionTable table(catalogue, {sgi}, 16);
  // Same name as a catalogue model, but not the catalogue's instance.
  const auto stranger = make_paper_application("cpi");
  EXPECT_THROW((void)table.row(*stranger, sgi), AssertionError);
  const ApplicationModel& app = *catalogue.all()[0];
  EXPECT_THROW(
      (void)table.row(app, ResourceModel::of(HardwareType::kSunUltra1)),
      AssertionError);
  EXPECT_THROW((void)table.row(app, ResourceModel{sgi.type, 2.0}),
               AssertionError);
  EXPECT_THROW(PredictionTable(catalogue, {sgi}, 0), AssertionError);
}

}  // namespace
}  // namespace gridlb::pace
