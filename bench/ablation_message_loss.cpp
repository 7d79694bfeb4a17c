// Ablation: message loss vs. the loss-tolerant agent protocol.
//
// The paper's agents exchange requests, advertisements and results over a
// network it assumes to be reliable.  DESIGN.md §10 adds a deterministic
// fault plan (drops, jitter, agent crashes) and a retry/timeout/backoff
// protocol on top; this bench sweeps the drop probability and reports the
// Table 3 metrics next to the fault-handling counters — what unreliability
// costs, and what the tolerance machinery spends to hide it.
//
// Single-point mode for CI smoke tests:
//   ablation_message_loss --drop 0.05 --requests 600
// runs one case with agent churn on and exits non-zero unless every
// submitted task completed.  `--drop 0` leaves churn as the only fault:
// the protocol is loss-tolerant whenever a fault source is active
// (SystemConfig::loss_tolerant()), lossy network or not.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "gridlb.hpp"

namespace {

using namespace gridlb;

core::ExperimentConfig lossy_config(double drop_prob, int requests) {
  core::ExperimentConfig config = core::experiment3();
  config.workload.count = requests;
  config.system.fault.drop_prob = drop_prob;
  return config;
}

void print_row(const char* label, const core::ExperimentResult& result) {
  const auto& total = result.report.total;
  std::printf("  %-14s %9.1f %8.1f %8.1f %7llu %8llu %8llu %8llu %7llu\n",
              label, total.advance_time, total.utilisation * 100.0,
              total.balance * 100.0,
              static_cast<unsigned long long>(result.tasks_completed),
              static_cast<unsigned long long>(result.messages_dropped),
              static_cast<unsigned long long>(result.message_retries),
              static_cast<unsigned long long>(result.duplicates_suppressed),
              static_cast<unsigned long long>(result.tasks_resubmitted));
}

int single_point(double drop_prob, int requests) {
  core::ExperimentConfig config = lossy_config(drop_prob, requests);
  config.system.agent_churn.enabled = true;
  const core::ExperimentResult result = core::run_experiment(config);
  std::printf("drop=%.0f%% churn=on: %llu/%llu tasks completed, "
              "%llu dropped msgs, %llu retries, %llu crashes, "
              "%llu resubmitted\n",
              drop_prob * 100.0,
              static_cast<unsigned long long>(result.tasks_completed),
              static_cast<unsigned long long>(result.requests_submitted),
              static_cast<unsigned long long>(result.messages_dropped),
              static_cast<unsigned long long>(result.message_retries),
              static_cast<unsigned long long>(result.agent_crashes),
              static_cast<unsigned long long>(result.tasks_resubmitted));
  if (result.tasks_completed < result.requests_submitted) {
    std::fprintf(stderr, "FAIL: tasks lost under message loss\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double drop = -1.0;
  int requests = 600;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--drop") == 0 && i + 1 < argc) {
      drop = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--drop P --requests N]  (no flags: sweep)\n",
                   argv[0]);
      return 2;
    }
  }
  if (drop >= 0.0) return single_point(drop, requests);

  std::printf("message-loss sweep (experiment 3, 300 requests, "
              "retry/timeout/backoff on when lossy):\n\n");
  std::printf("  %-14s %9s %8s %8s %7s %8s %8s %8s %7s\n", "drop rate",
              "eps(s)", "util%", "beta%", "done", "dropped", "retries",
              "dupes", "resub");
  for (const double rate : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20}) {
    char label[32];
    std::snprintf(label, sizeof label, "%.0f%%%s", rate * 100.0,
                  rate == 0.0 ? " (lossless)" : "");
    print_row(label, core::run_experiment(lossy_config(rate, 300)));
  }
  std::printf("\nreading: the retry/ack layer turns at-least-once delivery "
              "into effectively-once\nexecution — every task still "
              "completes; rising drop rates cost retransmission\ntraffic "
              "and backoff latency (eps creeps up), not tasks.\n");
  return 0;
}
