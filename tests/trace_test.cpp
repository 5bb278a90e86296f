#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dfs/mapreduce/trace.h"

namespace dfs::mapreduce {
namespace {

/// A two-task, one-job result small enough to check the exporters' output
/// line by line.
RunResult small_result() {
  RunResult r;
  MapTaskRecord m;
  m.id = 0;
  m.job = 0;
  m.block = {0, 2};
  m.exec_node = 3;
  m.source_node = 3;
  m.kind = MapTaskKind::kNodeLocal;
  m.assign_time = 1.0;
  m.fetch_done_time = 1.0;
  m.finish_time = 6.5;
  r.map_tasks.push_back(m);
  m.id = 1;
  m.block = {1, 0};
  m.exec_node = 4;
  m.source_node = -1;
  m.kind = MapTaskKind::kDegraded;
  m.fetch_done_time = 3.0;
  m.finish_time = 8.0;
  r.map_tasks.push_back(m);

  ReduceTaskRecord red;
  red.id = 0;
  red.job = 0;
  red.exec_node = 1;
  red.assign_time = 2.0;
  red.shuffle_done_time = 9.0;
  red.process_start_time = 9.0;
  red.finish_time = 13.0;
  r.reduce_tasks.push_back(red);

  JobMetrics j;
  j.id = 0;
  j.submit_time = 0.0;
  j.first_map_launch = 1.0;
  j.map_phase_end = 8.0;
  j.finish_time = 13.0;
  j.local_tasks = 1;
  j.degraded_tasks = 1;
  r.jobs.push_back(j);
  r.makespan = 13.0;
  return r;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// --- header-row stability -----------------------------------------------------
// External tooling keys on these column names; changing them is a breaking
// change that must show up as a test diff, not a silent analysis bug.

TEST(Trace, MapTaskCsvHeaderIsStable) {
  std::ostringstream os;
  write_map_task_csv(os, RunResult{});
  EXPECT_EQ(os.str(),
            "task_id,job_id,stripe,block_index,kind,exec_node,source_node,"
            "assign_time,fetch_done_time,finish_time,runtime,"
            "degraded_sources,unrecoverable\n");
}

TEST(Trace, MapTaskCsvAddsTimeScaleOnlyWhenSomeFactorIsNotOne) {
  RunResult r = small_result();
  std::ostringstream uniform;
  write_map_task_csv(uniform, r);
  EXPECT_EQ(uniform.str().find("time_scale"), std::string::npos);

  r.map_tasks[1].time_scale = 2.5;
  std::ostringstream slow;
  write_map_task_csv(slow, r);
  const auto lines = lines_of(slow.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].substr(lines[0].rfind(',')), ",time_scale");
  EXPECT_EQ(lines[1].substr(lines[1].rfind(',')), ",1");
  EXPECT_EQ(lines[2].substr(lines[2].rfind(',')), ",2.5");
}

TEST(Trace, ReduceTaskCsvHeaderIsStable) {
  std::ostringstream os;
  write_reduce_task_csv(os, RunResult{});
  EXPECT_EQ(os.str(),
            "task_id,job_id,exec_node,assign_time,shuffle_done_time,"
            "process_start_time,finish_time,runtime\n");
}

TEST(Trace, JobCsvHeaderIsStable) {
  std::ostringstream os;
  write_job_csv(os, RunResult{});
  EXPECT_EQ(os.str(),
            "job_id,submit_time,first_map_launch,map_phase_end,finish_time,"
            "runtime,latency,local_tasks,remote_tasks,degraded_tasks\n");
}

TEST(Trace, CsvRowsMatchRecordCountAndColumnCount) {
  const RunResult r = small_result();
  std::ostringstream os;
  write_map_task_csv(os, r);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 1u + r.map_tasks.size());
  const auto columns = static_cast<long>(
      std::count(lines[0].begin(), lines[0].end(), ',') + 1);
  for (const auto& line : lines) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ',') + 1, columns) << line;
  }
}

// --- field escaping -----------------------------------------------------------

TEST(Trace, CsvEscapePassesPlainFieldsThrough) {
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("node-local"), "node-local");
  EXPECT_EQ(csv_escape("42.5"), "42.5");
}

TEST(Trace, CsvEscapeQuotesSeparatorsQuotesAndNewlines) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape(",\"\n"), "\",\"\"\n\"");
}

TEST(Trace, MapTaskKindFieldSurvivesEscaping) {
  // Today's kind names are bare identifiers; escaping must not alter them.
  std::ostringstream os;
  write_map_task_csv(os, small_result());
  EXPECT_NE(os.str().find(",node-local,"), std::string::npos);
  EXPECT_NE(os.str().find(",degraded,"), std::string::npos);
  EXPECT_EQ(os.str().find('"'), std::string::npos);
}

}  // namespace
}  // namespace dfs::mapreduce
