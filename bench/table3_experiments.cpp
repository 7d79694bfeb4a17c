// Reproduces Table 3 (and the data behind Figs. 8–10): the three-way case
// study comparing FIFO-only, GA-only, and GA + agent-based discovery on
// the 12-resource grid of Fig. 7, under the §4.1 workload (600 requests,
// one per second, random applications/deadlines/entry agents, fixed seed).
//
// The paper's absolute numbers were measured on 2001-era hardware with the
// real PACE toolkit; this reproduction preserves the comparison's *shape*
// (see EXPERIMENTS.md for the side-by-side).

#include <cstdio>
#include <vector>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

// Table 3 of the paper, for reference output: {eps, util%, beta%} per
// experiment, rows S1..S12 + Total.
struct PaperRow {
  const char* label;
  double e1[3];
  double e2[3];
  double e3[3];
};
constexpr PaperRow kPaperTable3[] = {
    {"S1", {42, 7, 71}, {52, 9, 89}, {29, 81, 96}},
    {"S2", {11, 9, 78}, {34, 9, 89}, {23, 81, 95}},
    {"S3", {-135, 13, 62}, {23, 13, 92}, {24, 77, 87}},
    {"S4", {-328, 22, 45}, {-30, 28, 96}, {44, 82, 94}},
    {"S5", {-607, 32, 56}, {-492, 58, 95}, {38, 82, 94}},
    {"S6", {-321, 25, 56}, {-123, 29, 90}, {42, 78, 92}},
    {"S7", {-261, 23, 57}, {10, 25, 92}, {38, 84, 93}},
    {"S8", {-695, 33, 52}, {-513, 52, 90}, {42, 82, 91}},
    {"S9", {-806, 45, 58}, {-724, 63, 90}, {30, 80, 84}},
    {"S10", {-405, 28, 61}, {-129, 34, 94}, {25, 81, 94}},
    {"S11", {-1095, 44, 50}, {-816, 73, 92}, {35, 75, 89}},
    {"S12", {-859, 41, 46}, {-550, 67, 91}, {26, 78, 90}},
    {"Total", {-475, 26, 31}, {-295, 38, 42}, {32, 80, 90}},
};

void print_design() {
  std::printf("Table 2 — experiment design\n");
  std::printf("  experiment                1    2    3\n");
  std::printf("  FIFO algorithm            x    .    .\n");
  std::printf("  GA algorithm              .    x    x\n");
  std::printf("  agent-based discovery     .    .    x\n\n");

  std::printf("Fig. 7 — case-study resources (16 nodes each)\n");
  for (const auto& spec : core::case_study_resources()) {
    std::printf("  %-4s %-18s parent=%s\n", spec.name.c_str(),
                std::string(pace::hardware_name(spec.hardware)).c_str(),
                spec.parent < 0
                    ? "(head)"
                    : core::case_study_resources()
                          [static_cast<std::size_t>(spec.parent)]
                              .name.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_design();

  std::vector<core::ExperimentResult> results;
  for (const core::ExperimentConfig& config :
       {core::experiment1(), core::experiment2(), core::experiment3()}) {
    std::printf("running %s…\n", config.name.c_str());
    results.push_back(core::run_experiment(config));
    const core::ExperimentResult& r = results.back();
    std::printf("  done: %llu tasks, virtual t=%.0fs, %llu sim events, "
                "%.2f mean hops, %llu messages\n",
                static_cast<unsigned long long>(r.tasks_completed),
                r.finished_at,
                static_cast<unsigned long long>(r.sim_events), r.mean_hops,
                static_cast<unsigned long long>(r.network_messages));
  }

  std::printf("\nTable 3 (this reproduction)\n%s\n",
              core::format_table3(results).c_str());

  std::printf("Table 3 (paper, for comparison)\n");
  std::printf("%6s", "");
  for (int e = 0; e < 3; ++e) {
    std::printf(" | %9s%9s%9s", "eps(s)", "util(%)", "beta(%)");
  }
  std::printf("\n");
  for (const PaperRow& row : kPaperTable3) {
    std::printf("%6s", row.label);
    for (const double* exp : {row.e1, row.e2, row.e3}) {
      std::printf(" | %9.0f%9.0f%9.0f", exp[0], exp[1], exp[2]);
    }
    std::printf("\n");
  }

  std::printf("\nshape checks (paper's qualitative claims):\n");
  const auto total = [&results](std::size_t e) -> const metrics::MetricsRow& {
    return results[e].report.total;
  };
  const auto check = [](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  };
  check(total(0).advance_time < total(1).advance_time &&
            total(1).advance_time < total(2).advance_time,
        "eps improves monotonically across experiments 1->2->3");
  check(total(0).utilisation < total(1).utilisation &&
            total(1).utilisation < total(2).utilisation,
        "utilisation improves monotonically across experiments 1->2->3");
  check(total(0).balance < total(1).balance &&
            total(1).balance < total(2).balance,
        "grid balance improves monotonically across experiments 1->2->3");
  check(total(2).balance - total(1).balance >
            total(1).balance - total(0).balance,
        "agents contribute more to global balance than GA alone");
  return 0;
}
