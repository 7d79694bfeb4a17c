#include "pace/model_parser.hpp"

#include <gtest/gtest.h>

#include "pace/paper_applications.hpp"

namespace gridlb::pace {
namespace {

TEST(ModelParser, TabulatedBlock) {
  const auto model = parse_model(R"(
    # the Table 1 sweep3d row
    application sweep3d
      deadline 4 200
      times 50 40 30 25 23 20 17 15 13 11 9 7 6 5 4 4
    end
  )");
  EXPECT_EQ(model->name(), "sweep3d");
  EXPECT_EQ(model->max_procs(), 16);
  EXPECT_DOUBLE_EQ(model->reference_time(1), 50.0);
  EXPECT_DOUBLE_EQ(model->reference_time(16), 4.0);
  EXPECT_DOUBLE_EQ(model->deadline_domain().lo, 4.0);
  EXPECT_DOUBLE_EQ(model->deadline_domain().hi, 200.0);
}

TEST(ModelParser, ParametricSecondsBlock) {
  const auto model = parse_model(R"(
    application stencil2d
      deadline 10 120
      max_procs 8
      serial 2.0
      parallel 60.0
      comm_per_link 0.8
      sync 0.5
    end
  )");
  EXPECT_EQ(model->max_procs(), 8);
  EXPECT_DOUBLE_EQ(model->reference_time(1), 62.0);
  const auto* parametric = dynamic_cast<const ParametricModel*>(model.get());
  ASSERT_NE(parametric, nullptr);
  EXPECT_DOUBLE_EQ(parametric->params().comm_per_link, 0.8);
}

TEST(ModelParser, FlopsFormConvertsThroughRate) {
  const auto model = parse_model(R"(
    application mc_sim
      deadline 5 60
      flops 1.2e9
      rate 40          # Mflop/s per node
      serial_fraction 0.25
    end
  )");
  // total = 1.2e9 / 4e7 = 30 s; serial 7.5, parallel 22.5.
  EXPECT_DOUBLE_EQ(model->reference_time(1), 30.0);
  const auto* parametric = dynamic_cast<const ParametricModel*>(model.get());
  ASSERT_NE(parametric, nullptr);
  EXPECT_DOUBLE_EQ(parametric->params().serial, 7.5);
  EXPECT_DOUBLE_EQ(parametric->params().parallel, 22.5);
}

TEST(ModelParser, MultipleApplicationsIntoCatalogue) {
  const auto catalogue = parse_catalogue(R"(
    application a
      deadline 1 2
      times 5 4
    end
    application b
      deadline 1 2
      parallel 10
    end
  )");
  EXPECT_EQ(catalogue.size(), 2u);
  EXPECT_NE(catalogue.find("a"), nullptr);
  EXPECT_NE(catalogue.find("b"), nullptr);
}

TEST(ModelParser, CommentsAndBlankLines) {
  EXPECT_NO_THROW(parse_model(
      "# header\n\napplication x # trailing\n  deadline 1 2\n"
      "  times 3 # comment\nend\n"));
}

TEST(ModelParser, ErrorsCarryLineNumbers) {
  try {
    (void)parse_model("application x\n  deadline 1 2\n  bogus 1\nend\n");
    FAIL() << "expected ModelParseError";
  } catch (const ModelParseError& error) {
    EXPECT_EQ(error.line(), 3);
    EXPECT_NE(std::string(error.what()).find("bogus"), std::string::npos);
  }
}

TEST(ModelParser, InvertedDeadlineIsAParseErrorOnItsLine) {
  for (const char* deadline : {"deadline 30 10", "deadline -1 5"}) {
    const std::string text =
        std::string("application x\n  ") + deadline + "\n  times 3\nend\n";
    try {
      (void)parse_model(text);
      FAIL() << "expected ModelParseError for " << deadline;
    } catch (const ModelParseError& error) {
      EXPECT_EQ(error.line(), 2);
      const std::string what = error.what();
      EXPECT_NE(what.find("deadline domain must satisfy 0 <= lo <= hi"),
                std::string::npos);
      EXPECT_EQ(what.find("assertion"), std::string::npos) << what;
    }
  }
}

TEST(ModelParser, RejectsStructuralMistakes) {
  // Key outside a block.
  EXPECT_THROW((void)parse_catalogue("deadline 1 2\n"), ModelParseError);
  // Nested blocks.
  EXPECT_THROW((void)parse_catalogue(
                   "application a\napplication b\nend\n"),
               ModelParseError);
  // Missing end.
  EXPECT_THROW((void)parse_catalogue("application a\n  deadline 1 2\n"),
               ModelParseError);
  // Empty document.
  EXPECT_THROW((void)parse_catalogue("# nothing\n"), ModelParseError);
  // Unterminated + no name.
  EXPECT_THROW((void)parse_catalogue("application\nend\n"), ModelParseError);
}

TEST(ModelParser, RejectsSemanticMistakes) {
  // No deadline.
  EXPECT_THROW((void)parse_model("application a\n  times 1\nend\n"),
               ModelParseError);
  // Mixing tabulated and parametric.
  EXPECT_THROW((void)parse_model("application a\n  deadline 1 2\n"
                                 "  times 1 2\n  serial 1\nend\n"),
               ModelParseError);
  // Mixing seconds-form and flops-form.
  EXPECT_THROW((void)parse_model("application a\n  deadline 1 2\n"
                                 "  serial 1\n  flops 1e9\n  rate 10\nend\n"),
               ModelParseError);
  // flops without rate.
  EXPECT_THROW((void)parse_model("application a\n  deadline 1 2\n"
                                 "  flops 1e9\nend\n"),
               ModelParseError);
  // No body at all.
  EXPECT_THROW((void)parse_model("application a\n  deadline 1 2\nend\n"),
               ModelParseError);
  // Negative table entry.
  EXPECT_THROW((void)parse_model("application a\n  deadline 1 2\n"
                                 "  times 5 -1\nend\n"),
               ModelParseError);
  // max_procs disagrees with table length.
  EXPECT_THROW((void)parse_model("application a\n  deadline 1 2\n"
                                 "  max_procs 4\n  times 5 4\nend\n"),
               ModelParseError);
  // serial_fraction out of range.
  EXPECT_THROW((void)parse_model("application a\n  deadline 1 2\n"
                                 "  flops 1e9\n  rate 10\n"
                                 "  serial_fraction 2\nend\n"),
               ModelParseError);
  // Malformed number.
  EXPECT_THROW((void)parse_model("application a\n  deadline one 2\n"
                                 "  times 1\nend\n"),
               ModelParseError);
  // Duplicate application name.
  EXPECT_THROW((void)parse_catalogue(
                   "application a\n deadline 1 2\n times 1\nend\n"
                   "application a\n deadline 1 2\n times 2\nend\n"),
               ModelParseError);
}

TEST(ModelParser, WriteModelRoundTripsTabulated) {
  const auto original = make_paper_application("improc");
  const auto reparsed = parse_model(write_model(*original));
  EXPECT_EQ(reparsed->name(), "improc");
  for (int k = 1; k <= 16; ++k) {
    EXPECT_DOUBLE_EQ(reparsed->reference_time(k),
                     original->reference_time(k));
  }
  EXPECT_DOUBLE_EQ(reparsed->deadline_domain().hi,
                   original->deadline_domain().hi);
}

TEST(ModelParser, WriteModelRoundTripsParametric) {
  ParametricModel::Params params;
  params.serial = 1.5;
  params.parallel = 42.0;
  params.comm_per_link = 0.25;
  params.sync = 0.75;
  params.max_procs = 12;
  const ParametricModel original("custom", {3, 30}, params);
  const auto reparsed = parse_model(write_model(original));
  for (int k = 1; k <= 12; ++k) {
    EXPECT_DOUBLE_EQ(reparsed->reference_time(k),
                     original.reference_time(k));
  }
}

// Property: every paper application survives a write/parse round trip.
class ModelRoundTrip : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> paper_app_names() {
  const ApplicationCatalogue catalogue = paper_catalogue();
  std::vector<std::string> names;
  for (const auto& app : catalogue.all()) names.push_back(app->name());
  return names;
}

TEST_P(ModelRoundTrip, Identity) {
  const auto original = make_paper_application(GetParam());
  const auto reparsed = parse_model(write_model(*original));
  for (int k = 1; k <= original->max_procs(); ++k) {
    EXPECT_DOUBLE_EQ(reparsed->reference_time(k),
                     original->reference_time(k));
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, ModelRoundTrip,
                         ::testing::ValuesIn(paper_app_names()));

}  // namespace
}  // namespace gridlb::pace
