// Verifies that the built-in application models reproduce Table 1 of the
// paper exactly: predicted runtimes for 1..16 SGIOrigin2000 processors and
// the deadline domains.
#include "pace/paper_applications.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/assert.hpp"
#include "pace/evaluation_engine.hpp"

namespace gridlb::pace {
namespace {

struct Table1Row {
  DeadlineDomain deadlines;
  std::vector<double> times;
};

const std::map<std::string, Table1Row>& table1() {
  static const std::map<std::string, Table1Row> kTable = {
      {"sweep3d",
       {{4, 200},
        {50, 40, 30, 25, 23, 20, 17, 15, 13, 11, 9, 7, 6, 5, 4, 4}}},
      {"fft",
       {{10, 100},
        {25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10}}},
      {"improc",
       {{20, 192},
        {48, 41, 35, 30, 26, 23, 21, 20, 20, 21, 23, 26, 30, 35, 41, 48}}},
      {"closure",
       {{2, 36}, {9, 9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2}}},
      {"jacobi",
       {{6, 160},
        {40, 35, 30, 25, 23, 20, 17, 15, 13, 11, 10, 9, 8, 7, 6, 6}}},
      {"memsort",
       {{10, 68},
        {17, 16, 15, 14, 13, 12, 11, 10, 10, 11, 12, 13, 14, 15, 16, 17}}},
      {"cpi",
       {{2, 128},
        {32, 26, 21, 17, 14, 11, 9, 7, 5, 4, 3, 2, 4, 7, 12, 20}}},
  };
  return kTable;
}

/// The application names of the expected rows above.
std::vector<std::string> table1_names() {
  std::vector<std::string> names;
  for (const auto& [name, row] : table1()) names.push_back(name);
  return names;
}

TEST(PaperApplications, SevenApplicationsInTableOrder) {
  const ApplicationCatalogue catalogue = paper_catalogue();
  const auto& apps = catalogue.all();
  ASSERT_EQ(apps.size(), 7u);
  EXPECT_EQ(apps[0]->name(), "sweep3d");
  EXPECT_EQ(apps[1]->name(), "fft");
  EXPECT_EQ(apps[2]->name(), "improc");
  EXPECT_EQ(apps[3]->name(), "closure");
  EXPECT_EQ(apps[4]->name(), "jacobi");
  EXPECT_EQ(apps[5]->name(), "memsort");
  EXPECT_EQ(apps[6]->name(), "cpi");
}

TEST(PaperApplications, CatalogueHoldsAllSeven) {
  const ApplicationCatalogue catalogue = paper_catalogue();
  EXPECT_EQ(catalogue.size(), 7u);
  for (const auto& name : table1_names()) {
    EXPECT_NE(catalogue.find(name), nullptr) << name;
  }
}

TEST(PaperApplications, UnknownNameThrows) {
  EXPECT_THROW(make_paper_application("linpack"), AssertionError);
}

class Table1Exact : public ::testing::TestWithParam<std::string> {};

TEST_P(Table1Exact, DeadlineDomainMatches) {
  const auto model = make_paper_application(GetParam());
  const Table1Row& row = table1().at(GetParam());
  EXPECT_DOUBLE_EQ(model->deadline_domain().lo, row.deadlines.lo);
  EXPECT_DOUBLE_EQ(model->deadline_domain().hi, row.deadlines.hi);
}

TEST_P(Table1Exact, ReferenceTimesMatchEveryProcCount) {
  const auto model = make_paper_application(GetParam());
  const Table1Row& row = table1().at(GetParam());
  ASSERT_EQ(model->max_procs(), 16);
  for (int k = 1; k <= 16; ++k) {
    EXPECT_DOUBLE_EQ(model->reference_time(k),
                     row.times[static_cast<std::size_t>(k - 1)])
        << GetParam() << " at " << k << " processors";
  }
}

TEST_P(Table1Exact, EvaluationEngineReproducesTable1OnReference) {
  // Through the full engine path (model × SGIOrigin2000 resource model).
  const auto model = make_paper_application(GetParam());
  EvaluationEngine engine;
  const auto sgi = ResourceModel::of(HardwareType::kSgiOrigin2000);
  const Table1Row& row = table1().at(GetParam());
  for (int k = 1; k <= 16; ++k) {
    EXPECT_DOUBLE_EQ(engine.evaluate(*model, sgi, k),
                     row.times[static_cast<std::size_t>(k - 1)]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, Table1Exact,
                         ::testing::ValuesIn(table1_names()));

TEST(Table1Trends, Sweep3dMonotoneNonIncreasing) {
  // "the run time of sweep3d decreases when the number of processors
  // increases"
  const auto model = make_paper_application("sweep3d");
  for (int k = 2; k <= 16; ++k) {
    EXPECT_LE(model->reference_time(k), model->reference_time(k - 1));
  }
}

TEST(Table1Trends, ImprocOptimumAtEight) {
  // "run time of improc decreases at an optimum of 8 processes — after
  // which the run time increases" (8 and 9 tie at 20 s in Table 1).
  const auto model = make_paper_application("improc");
  double best = 1e9;
  int best_k = 0;
  for (int k = 1; k <= 16; ++k) {
    if (model->reference_time(k) < best) {
      best = model->reference_time(k);
      best_k = k;
    }
  }
  EXPECT_EQ(best_k, 8);
  EXPECT_GT(model->reference_time(16), best);
}

TEST(Table1Trends, CpiOptimumAtTwelve) {
  const auto model = make_paper_application("cpi");
  EXPECT_DOUBLE_EQ(model->reference_time(12), 2.0);
  EXPECT_GT(model->reference_time(16), model->reference_time(12));
}

}  // namespace
}  // namespace gridlb::pace
