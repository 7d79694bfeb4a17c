// Reproduces the paper's case study (§4): Table 2's three experiments —
// FIFO-only, GA-only, and GA + agent-based discovery — on the 12-resource
// grid of Fig. 7, under the §4.1 workload (600 requests, one per second,
// random applications/deadlines/entry agents, fixed seed).  One run of each
// experiment feeds Table 3 and the Fig. 8–10 series, and the paper's 12
// qualitative claims are checked against it: the bench exits 1 if any
// check fails.
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

/// Prints one Fig. 8/9/10 series block: a column per experiment and a row
/// per agent plus the grid total, using `select` to project a metric out of
/// a MetricsRow.
template <class Select>
void print_series(const std::vector<core::ExperimentResult>& results,
                  const char* metric_label, Select select) {
  std::printf("%-7s", "agent");
  for (std::size_t e = 1; e <= results.size(); ++e) {
    std::printf("  exp%zu(%s)", e, metric_label);
  }
  std::printf("\n");
  const std::size_t rows = results.front().report.resources.size();
  for (std::size_t row = 0; row < rows; ++row) {
    std::printf("%-7s", results.front().report.resources[row].label.c_str());
    for (const auto& result : results) {
      std::printf("  %11.1f", select(result.report.resources[row]));
    }
    std::printf("\n");
  }
  std::printf("%-7s", "Total");
  for (const auto& result : results) {
    std::printf("  %11.1f", select(result.report.total));
  }
  std::printf("\n");
}

/// Prints Table 3 next to the paper's and the Fig. 8, 9 and 10 series of
/// experiments 1–3, each followed by the paper's claims it shows, and
/// returns how many of those 12 checks failed.
int print_results(const std::vector<core::ExperimentResult>& results) {
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

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };
  const auto total = [&results](std::size_t e) -> const metrics::MetricsRow& {
    return results[e].report.total;
  };
  const auto resource = [&results](std::size_t e, std::size_t agent)
      -> const metrics::MetricsRow& {
    return results[e].report.resources[agent];
  };

  std::printf("\nshape checks (paper's qualitative claims):\n");
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

  // Fig. 8 (paper §4.2): ε improves with each mechanism, and the heavily
  // loaded platforms (S11, S12) improve more than the lightly loaded ones
  // (S1, S2).
  std::printf("Fig. 8 — average advance time eps (s) by experiment\n\n");
  print_series(results, "eps/s", [](const metrics::MetricsRow& row) {
    return row.advance_time;
  });
  std::printf("\nshape checks:\n");
  check(total(0).advance_time < total(1).advance_time,
        "GA improves grid-average eps over FIFO (exp1 -> exp2)");
  check(total(1).advance_time < total(2).advance_time,
        "agents improve grid-average eps further (exp2 -> exp3)");
  const auto improvement = [&resource](std::size_t agent) {
    return resource(2, agent).advance_time - resource(0, agent).advance_time;
  };
  check(improvement(10) > improvement(0) && improvement(11) > improvement(1),
        "S11/S12 (overloaded) improve more than S1/S2 (lightly loaded)");

  // Fig. 9: utilisation rises with each mechanism, and S1, lightly loaded
  // without agents, gains most of its utilisation from the agents
  // dispatching work to it.
  std::printf("Fig. 9 — resource utilisation rate (%%) by experiment\n\n");
  print_series(results, "util%", [](const metrics::MetricsRow& row) {
    return row.utilisation * 100.0;
  });
  std::printf("\nshape checks:\n");
  check(total(0).utilisation < total(1).utilisation &&
            total(1).utilisation < total(2).utilisation,
        "grid utilisation improves monotonically across experiments");
  check(resource(2, 0).utilisation - resource(1, 0).utilisation >
            resource(1, 0).utilisation - resource(0, 0).utilisation,
        "S1 benefits more from agents than from the GA");

  // Fig. 10: "the GA scheduling contributes more to local grid load
  // balancing and agents contribute more to global grid load balancing".
  std::printf("Fig. 10 — load balancing level beta (%%) by experiment\n\n");
  print_series(results, "beta%", [](const metrics::MetricsRow& row) {
    return row.balance * 100.0;
  });
  const auto mean_local = [&results](std::size_t e) {
    double sum = 0.0;
    for (const auto& row : results[e].report.resources) sum += row.balance;
    return sum / static_cast<double>(results[e].report.resources.size());
  };
  std::printf("\nshape checks:\n");
  check(mean_local(1) > mean_local(0),
        "GA lifts mean *local* balance (exp1 -> exp2)");
  check(total(2).balance - total(1).balance >
            total(1).balance - total(0).balance,
        "agents provide the bigger jump in *global* balance (exp2 -> exp3)");
  check(total(2).balance > 0.8,
        "coupled system reaches high global balance (paper: 90%)");
  return failures;
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

  return print_results(results) == 0 ? 0 : 1;
}
