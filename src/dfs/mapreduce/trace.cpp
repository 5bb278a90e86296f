#include "dfs/mapreduce/trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace dfs::mapreduce {

namespace {

void write_row_end(std::ostream& os) { os << '\n'; }

}  // namespace

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void write_map_task_csv(std::ostream& os, const RunResult& result) {
  const bool any_scaled =
      std::any_of(result.map_tasks.begin(), result.map_tasks.end(),
                  [](const MapTaskRecord& t) { return t.time_scale != 1.0; });
  os << "task_id,job_id,stripe,block_index,kind,exec_node,source_node,"
        "assign_time,fetch_done_time,finish_time,runtime,degraded_sources,"
        "unrecoverable";
  if (any_scaled) os << ",time_scale";
  os << '\n';
  for (const auto& t : result.map_tasks) {
    os << t.id << ',' << t.job << ',' << t.block.stripe << ','
       << t.block.index << ',' << csv_escape(to_string(t.kind)) << ','
       << t.exec_node
       << ',' << t.source_node << ',' << t.assign_time << ','
       << t.fetch_done_time << ',' << t.finish_time << ',' << t.runtime()
       << ',' << t.sources.size() << ',' << (t.unrecoverable ? 1 : 0);
    if (any_scaled) os << ',' << t.time_scale;
    write_row_end(os);
  }
}

void write_reduce_task_csv(std::ostream& os, const RunResult& result) {
  os << "task_id,job_id,exec_node,assign_time,shuffle_done_time,"
        "process_start_time,finish_time,runtime\n";
  for (const auto& t : result.reduce_tasks) {
    os << t.id << ',' << t.job << ',' << t.exec_node << ',' << t.assign_time
       << ',' << t.shuffle_done_time << ',' << t.process_start_time << ','
       << t.finish_time << ',' << t.runtime();
    write_row_end(os);
  }
}

void write_job_csv(std::ostream& os, const RunResult& result) {
  os << "job_id,submit_time,first_map_launch,map_phase_end,finish_time,"
        "runtime,latency,local_tasks,remote_tasks,degraded_tasks\n";
  for (const auto& j : result.jobs) {
    os << j.id << ',' << j.submit_time << ',' << j.first_map_launch << ','
       << j.map_phase_end << ',' << j.finish_time << ',' << j.runtime() << ','
       << j.latency() << ',' << j.local_tasks << ',' << j.remote_tasks << ','
       << j.degraded_tasks;
    write_row_end(os);
  }
}

void write_attempt_csv(std::ostream& os, const RunResult& result) {
  os << "phase,task_id,job_id,attempt,stripe,block_index,exec_node,kind,"
        "assign_time,finish_time,outcome,speculative,output_lost\n";
  for (const auto& t : result.map_tasks) {
    os << "map," << t.id << ',' << t.job << ',' << t.attempt << ','
       << t.block.stripe << ',' << t.block.index << ',' << t.exec_node << ','
       << csv_escape(to_string(t.kind)) << ',' << t.assign_time << ','
       << t.finish_time << ',' << csv_escape(to_string(t.outcome)) << ','
       << (t.speculative ? 1 : 0) << ',' << (t.output_lost ? 1 : 0);
    write_row_end(os);
  }
  for (const auto& t : result.reduce_tasks) {
    os << "reduce," << t.id << ',' << t.job << ',' << t.attempt << ','
       << -1 << ',' << -1 << ',' << t.exec_node << ",-," << t.assign_time
       << ',' << t.finish_time << ',' << csv_escape(to_string(t.outcome))
       << ",0,0";
    write_row_end(os);
  }
}

void write_csv_files(const std::string& prefix, const RunResult& result) {
  const auto open = [](const std::string& path) {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot open " + path);
    return f;
  };
  auto maps = open(prefix + "_map_tasks.csv");
  write_map_task_csv(maps, result);
  auto reduces = open(prefix + "_reduce_tasks.csv");
  write_reduce_task_csv(reduces, result);
  auto jobs = open(prefix + "_jobs.csv");
  write_job_csv(jobs, result);
}

}  // namespace dfs::mapreduce
