// The PACE model-description language end to end.
//
// Grid users are "scientists who are both program developers and end
// users": they describe their applications once, ship the model file with
// the binary, and every scheduler and agent prices their tasks from it.
// This example parses a model file (inline here; `gridlb predict --model`
// reads one from disk), prints the predicted scaling curves per platform,
// and runs the parsed applications through a GA scheduler.

#include <cstdio>

#include "gridlb.hpp"

namespace {

constexpr const char* kModelFile = R"(
# Two user applications, one per modelling style.

application oceansim          # tabulated: measured reference curve
  deadline 15 180
  times 90 62 47 38 33 29 27 25 24 23 23 22 22 23 24 25
end

application genome_align      # parametric: flops through a node rate
  deadline 30 240
  flops 4.8e9
  rate 60                     # Mflop/s per reference node
  serial_fraction 0.1
  max_procs 16
end
)";

}  // namespace

int main() {
  using namespace gridlb;

  const pace::ApplicationCatalogue catalogue =
      pace::parse_catalogue(kModelFile);
  std::printf("parsed %zu application models\n\n", catalogue.size());

  for (const auto& model : catalogue.all()) {
    std::printf("%s — predicted runtime (s):\n", model->name().c_str());
    std::printf("  %-18s", "platform");
    for (const int k : {1, 2, 4, 8, 16}) std::printf(" %7d", k);
    std::printf("\n");
    for (const auto type : pace::all_hardware_types()) {
      const auto resource = pace::ResourceModel::of(type);
      std::printf("  %-18s", std::string(pace::hardware_name(type)).c_str());
      for (const int k : {1, 2, 4, 8, 16}) {
        std::printf(" %7.1f",
                    pace::EvaluationEngine::evaluate(*model, resource, k));
      }
      std::printf("\n");
    }
    std::printf("\n");
  }

  // Round-trip: the library can re-emit the models it parsed.
  std::printf("re-emitted model file:\n%s\n",
              pace::write_model(*catalogue.all()[0]).c_str());

  // Schedule a mixed batch of the user's applications.
  const auto ultra10 = pace::ResourceModel::of(pace::HardwareType::kSunUltra10);
  const pace::PredictionTable table(catalogue, {ultra10}, 16);
  sched::ScheduleBuilder builder(table, ultra10, 16);
  std::vector<sched::Task> tasks;
  for (std::uint64_t i = 0; i < 8; ++i) {
    sched::Task task;
    task.id = TaskId(i + 1);
    task.app = catalogue.all()[i % 2];
    const auto domain = task.app->deadline_domain();
    task.deadline = (domain.lo + domain.hi) / 2.0;
    tasks.push_back(std::move(task));
  }
  sched::GaConfig config;
  config.generations = 80;
  sched::GaScheduler scheduler(builder, config, 3);
  const std::vector<SimTime> idle(16, 0.0);
  const auto result = scheduler.optimize(tasks, idle, 0.0);
  std::printf("GA over 8 user tasks on a 16-node SunUltra10: makespan %.1f s, "
              "%d deadline miss(es)\n",
              result.schedule.makespan, result.schedule.deadline_misses);
  return 0;
}
