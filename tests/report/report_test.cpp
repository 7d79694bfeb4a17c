#include <gtest/gtest.h>

#include "pace/paper_applications.hpp"
#include "report/csv.hpp"
#include "report/gantt.hpp"

namespace gridlb::report {
namespace {

sched::CompletionRecord record(std::uint64_t task, sched::NodeMask mask,
                               SimTime start, SimTime end,
                               SimTime deadline = 1e6) {
  sched::CompletionRecord r;
  r.task = TaskId(task);
  r.resource = AgentId(1);
  r.mask = mask;
  r.app_name = "fft";
  r.start = start;
  r.end = end;
  r.deadline = deadline;
  return r;
}

TEST(Gantt, RendersPlannedSchedule) {
  const auto catalogue = pace::paper_catalogue();
  std::vector<sched::Task> tasks(1);
  tasks[0].id = TaskId(1);
  tasks[0].app = catalogue.find("closure");
  tasks[0].deadline = 100.0;

  sched::DecodedSchedule schedule;
  schedule.placements = {{0.0, 8.0, 0b0011}};
  schedule.completion = 8.0;
  schedule.makespan = 8.0;

  GanttOptions options;
  options.columns = 8;
  const std::string chart =
      render_schedule(tasks, schedule, 4, 0.0, options);
  // Nodes 0 and 1 busy with 'A' for the whole window; nodes 2,3 idle.
  EXPECT_NE(chart.find("node  0 |AAAAAAAA|"), std::string::npos) << chart;
  EXPECT_NE(chart.find("node  1 |AAAAAAAA|"), std::string::npos);
  EXPECT_NE(chart.find("node  2 |........|"), std::string::npos);
}

TEST(Gantt, EmptyScheduleSaysSo) {
  const std::vector<sched::Task> tasks;
  sched::DecodedSchedule schedule;
  const std::string chart = render_schedule(tasks, schedule, 4);
  EXPECT_NE(chart.find("empty"), std::string::npos);
}

TEST(Gantt, TraceLettersFollowRecordOrder) {
  GanttOptions options;
  options.columns = 10;
  const std::vector<sched::CompletionRecord> records = {
      record(1, 0b01, 0.0, 5.0),
      record(2, 0b10, 5.0, 10.0),
  };
  const std::string chart = render_trace(records, 2, 0.0, 10.0, options);
  EXPECT_NE(chart.find("node  0 |AAAAA.....|"), std::string::npos) << chart;
  EXPECT_NE(chart.find("node  1 |.....BBBBB|"), std::string::npos);
}

TEST(Gantt, TraceDefaultsToRecordSpan) {
  const std::vector<sched::CompletionRecord> records = {
      record(1, 0b1, 10.0, 30.0)};
  const std::string chart = render_trace(records, 1);
  EXPECT_NE(chart.find("time 10 .. 30"), std::string::npos) << chart;
}

TEST(Gantt, GlyphsCycleAfterZ) {
  std::vector<sched::CompletionRecord> records;
  for (std::uint64_t i = 0; i < 27; ++i) {
    records.push_back(record(i, 0b1, static_cast<double>(i),
                             static_cast<double>(i) + 1.0));
  }
  const std::string chart = render_trace(records, 1);
  EXPECT_NE(chart.find('Z'), std::string::npos);
  // Record 26 cycles back to 'A'.
  EXPECT_NE(chart.find('A'), std::string::npos);
}

TEST(Csv, FieldQuoting) {
  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, ReportIncludesTotalRow) {
  metrics::MetricsCollector collector;
  collector.add_resource(AgentId(1), "S1", 2);
  collector.on_submission(0.0);
  collector.record(record(1, 0b01, 0.0, 10.0, 20.0));
  const std::string csv = report_csv(collector.report());
  EXPECT_NE(csv.find("resource,tasks"), std::string::npos);
  EXPECT_NE(csv.find("S1,1,1,"), std::string::npos);
  EXPECT_NE(csv.find("Total,1,1,"), std::string::npos);
}

TEST(Csv, ExperimentsLongFormat) {
  core::ExperimentConfig config = core::experiment3();
  config.workload.count = 12;
  std::vector<core::ExperimentResult> results;
  results.push_back(core::run_experiment(config));
  const std::string csv = experiments_csv(results);
  EXPECT_NE(csv.find("experiment,resource,eps_s"), std::string::npos);
  EXPECT_NE(csv.find("S12"), std::string::npos);
  EXPECT_NE(csv.find("Total"), std::string::npos);
  // 12 resources + total = 13 data rows + header.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 14);
}

}  // namespace
}  // namespace gridlb::report
