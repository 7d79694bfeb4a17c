// Microbenchmarks (google-benchmark) for the scheduling kernels:
//   * PACE evaluation — raw engine vs a prediction-table read,
//   * schedule decoding (the GA's inner loop), both as the legacy
//     self-contained full decode and as the DESIGN.md §11 hot path
//     (prepared context + metrics-only evaluate),
//   * one GA generation at the paper's settings,
//   * one FIFO placement (the per-width argmin over all 2^16−1 subsets)
//     on an idle resource and on a loaded one with two nodes down,
//   * agent matchmaking (eq. 10),
//   * XML round-trip of the agent documents, and the receiver's parse plus
//     typed read of one delivered request.
// These back the performance discussion in §2.2 of the paper with
// measured numbers on this machine.  `--json <path>` writes the decode vs
// evaluate comparison (plus the PACE layer costs and peak RSS) as a
// machine-readable report.

#include <benchmark/benchmark.h>

#include <fstream>

#include "gridlb.hpp"
#include "json_bench.hpp"

namespace {

using namespace gridlb;

const pace::ApplicationCatalogue& catalogue() {
  static const pace::ApplicationCatalogue paper = pace::paper_catalogue();
  return paper;
}

/// The 16-node SGIOrigin2000 every kernel below runs on, and its table.
const pace::ResourceModel kSgi =
    pace::ResourceModel::of(pace::HardwareType::kSgiOrigin2000);

const pace::PredictionTable& sgi_table() {
  static const pace::PredictionTable table(catalogue(), {kSgi}, 16);
  return table;
}

std::vector<sched::Task> make_tasks(int count) {
  const pace::ApplicationCatalogue& apps = catalogue();
  Rng rng(5);
  std::vector<sched::Task> tasks;
  for (int i = 0; i < count; ++i) {
    sched::Task task;
    task.id = TaskId(static_cast<std::uint64_t>(i));
    task.app = apps.all()[static_cast<std::size_t>(
        rng.next_below(apps.size()))];
    const auto domain = task.app->deadline_domain();
    task.deadline = rng.uniform(domain.lo, domain.hi);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

void BM_PaceEvaluateRaw(benchmark::State& state) {
  const auto& model = *catalogue().find("sweep3d");
  int nproc = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pace::EvaluationEngine::evaluate(model, kSgi, nproc));
    nproc = nproc % 16 + 1;
  }
}
BENCHMARK(BM_PaceEvaluateRaw);

// A lookup as the agents make it: find the row, then index it.
void BM_PaceTableRead(benchmark::State& state) {
  const auto& model = *catalogue().find("sweep3d");
  int nproc = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sgi_table().row(model, kSgi)[static_cast<std::size_t>(nproc - 1)]);
    nproc = nproc % 16 + 1;
  }
}
BENCHMARK(BM_PaceTableRead);

void BM_ScheduleDecode(benchmark::State& state) {
  sched::ScheduleBuilder builder(sgi_table(), kSgi, 16);
  const auto tasks = make_tasks(static_cast<int>(state.range(0)));
  Rng rng(9);
  const auto solution =
      sched::SolutionString::random(static_cast<int>(tasks.size()), 16, rng);
  const std::vector<SimTime> idle(16, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.decode(tasks, solution, idle, 0.0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_ScheduleDecode)->Arg(5)->Arg(20)->Arg(50)->Arg(200)->Arg(600);

// The GA's steady-state evaluation (DESIGN.md §11): prediction rows and
// node availability hoisted into a prepared context, metrics-only decode
// into a reusable scratch — no allocations.
void BM_ScheduleEvaluate(benchmark::State& state) {
  sched::ScheduleBuilder builder(sgi_table(), kSgi, 16);
  const auto tasks = make_tasks(static_cast<int>(state.range(0)));
  Rng rng(9);
  const auto solution =
      sched::SolutionString::random(static_cast<int>(tasks.size()), 16, rng);
  const std::vector<SimTime> idle(16, 0.0);
  sched::DecodeContext context;
  sched::DecodeScratch scratch;
  builder.prepare(context, tasks, idle, 0.0, sched::full_mask(16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.evaluate(context, solution, scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks.size()));
}
BENCHMARK(BM_ScheduleEvaluate)->Arg(5)->Arg(20)->Arg(50)->Arg(200)->Arg(600);

void BM_GaGeneration(benchmark::State& state) {
  // One optimize() call with a single generation at the paper's settings
  // (population 50); ~50 decodes ≈ the paper's "1000 evaluations per
  // generation" once the 20-task decode loop is unrolled.
  sched::ScheduleBuilder builder(sgi_table(), kSgi, 16);
  const auto tasks = make_tasks(20);
  sched::GaConfig config;
  config.generations = 1;
  sched::GaScheduler scheduler(builder, config, 11);
  const std::vector<SimTime> idle(16, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.optimize(tasks, idle, 0.0));
  }
}
BENCHMARK(BM_GaGeneration);

void BM_FifoPlacement(benchmark::State& state) {
  sched::FifoScheduler fifo(sgi_table(), kSgi, 16);
  const auto tasks = make_tasks(1);
  std::vector<SimTime> free(16, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fifo.place(tasks[0], free, 0.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoPlacement);

// The idle machine is the easiest input: every free time is equal.  Here
// the free times are seeded-random (some in the past, clamped to now) and
// nodes 3 and 11 are down, so the sort and the eligibility scan both work.
void BM_FifoPlacementLoaded(benchmark::State& state) {
  sched::FifoScheduler fifo(sgi_table(), kSgi, 16);
  const auto tasks = make_tasks(8);
  Rng rng(13);
  std::vector<SimTime> free(16);
  for (auto& f : free) f = rng.uniform(0.0, 200.0);
  const sched::NodeMask available =
      sched::full_mask(16) & ~((sched::NodeMask{1} << 3) |
                               (sched::NodeMask{1} << 11));
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fifo.place(tasks[next], free, 50.0, available));
    next = (next + 1) % tasks.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoPlacementLoaded);

void BM_AgentMatchmaking(benchmark::State& state) {
  // eq. 10: one prediction row, minimum over its n entries.
  sim::Engine engine;
  const pace::ApplicationCatalogue catalogue = pace::paper_catalogue();
  agents::SystemConfig config;
  config.resources = {{"S1", pace::HardwareType::kSgiOrigin2000, 16, -1}};
  agents::AgentSystem system(engine, catalogue, std::move(config), nullptr);
  const agents::Agent& agent = system.agent(0);
  const agents::ServiceInfo info = agent.service_snapshot();
  agents::Request request;
  request.app_name = "jacobi";
  request.environment = "test";
  request.deadline = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.estimate_completion(info, request));
  }
}
BENCHMARK(BM_AgentMatchmaking);

void BM_ServiceInfoXmlRoundTrip(benchmark::State& state) {
  agents::ServiceInfo info;
  info.agent_address = "gem.dcs.warwick.ac.uk";
  info.agent_port = 1000;
  info.local_address = "gem.dcs.warwick.ac.uk";
  info.local_port = 10000;
  info.hardware_type = "SunUltra10";
  info.nproc = 16;
  info.environments = {"mpi", "pvm", "test"};
  info.freetime = 4312.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agents::service_info_from_xml(to_xml(info)));
  }
}
BENCHMARK(BM_ServiceInfoXmlRoundTrip);

void BM_RequestXmlRoundTrip(benchmark::State& state) {
  agents::Request request;
  request.task = TaskId(42);
  request.app_name = "sweep3d";
  request.binary_file = "/gridlb/binary/sweep3d";
  request.input_file = "/gridlb/binary/sweep3d.input";
  request.model_name = "/gridlb/model/sweep3d";
  request.deadline = 437.25;
  request.email = "user@gridlb.sim";
  request.visited = {AgentId(3), AgentId(1)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(agents::request_from_xml(to_xml(request)));
  }
}
BENCHMARK(BM_RequestXmlRoundTrip);

// The receiver's side of one delivered request: one parse, then the typed
// reader over the tree.
void BM_DeliverRequest(benchmark::State& state) {
  agents::Request request;
  request.task = TaskId(42);
  request.app_name = "sweep3d";
  request.binary_file = "/gridlb/binary/sweep3d";
  request.input_file = "/gridlb/binary/sweep3d.input";
  request.model_name = "/gridlb/model/sweep3d";
  request.deadline = 437.25;
  request.email = "user@gridlb.sim";
  request.origin = 12;
  const std::string payload = to_xml(request);
  for (auto _ : state) {
    const auto document = xml::parse(payload);
    benchmark::DoNotOptimize(agents::request_from_xml(*document));
  }
}
BENCHMARK(BM_DeliverRequest);

// The `--json` report: decode vs evaluate ns at three queue depths, the
// PACE layer costs, and peak RSS — steady_clock, independent of
// google-benchmark's own reporters.
void write_json_report(const std::string& path) {
  sched::ScheduleBuilder builder(sgi_table(), kSgi, 16);
  const std::vector<SimTime> idle(16, 0.0);

  std::ofstream out(path);
  benchjson::JsonWriter json(out);
  json.begin_object();
  json.field("bench", "micro_schedulers");
  json.field("schema_version", 2);
  json.begin_array("schedule");
  for (const int count : {20, 200, 600}) {
    const auto tasks = make_tasks(count);
    Rng rng(9);
    const auto solution = sched::SolutionString::random(count, 16, rng);
    const double decode_ns =
        benchjson::measure_ns_per_op([&](std::int64_t iters) {
          for (std::int64_t i = 0; i < iters; ++i) {
            benchmark::DoNotOptimize(
                builder.decode(tasks, solution, idle, 0.0));
          }
        });
    sched::DecodeContext context;
    sched::DecodeScratch scratch;
    builder.prepare(context, tasks, idle, 0.0, sched::full_mask(16));
    (void)builder.evaluate(context, solution, scratch);
    const double evaluate_ns =
        benchjson::measure_ns_per_op([&](std::int64_t iters) {
          for (std::int64_t i = 0; i < iters; ++i) {
            benchmark::DoNotOptimize(
                builder.evaluate(context, solution, scratch));
          }
        });
    json.begin_object();
    json.field("tasks", count);
    json.field("full_decode_ns", decode_ns);
    json.field("evaluate_ns", evaluate_ns);
    json.field("speedup_vs_full_decode", decode_ns / evaluate_ns);
    json.end_object();
  }
  json.end_array();
  const auto& model = *catalogue().find("sweep3d");
  int nproc = 1;
  const double raw_ns = benchjson::measure_ns_per_op([&](std::int64_t iters) {
    for (std::int64_t i = 0; i < iters; ++i) {
      benchmark::DoNotOptimize(
          pace::EvaluationEngine::evaluate(model, kSgi, nproc));
      nproc = nproc % 16 + 1;
    }
  });
  const double table_ns =
      benchjson::measure_ns_per_op([&](std::int64_t iters) {
        for (std::int64_t i = 0; i < iters; ++i) {
          benchmark::DoNotOptimize(sgi_table().row(model, kSgi)[
              static_cast<std::size_t>(nproc - 1)]);
          nproc = nproc % 16 + 1;
        }
      });
  json.begin_object("pace");
  json.field("raw_ns", raw_ns);
  json.field("table_ns", table_ns);
  json.end_object();
  json.field("peak_rss_bytes", benchjson::peak_rss_bytes());
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      gridlb::benchjson::extract_json_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) write_json_report(json_path);
  return 0;
}
