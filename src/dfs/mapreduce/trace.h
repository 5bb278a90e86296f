#pragma once

#include <iosfwd>
#include <string>

#include "dfs/mapreduce/metrics.h"

namespace dfs::mapreduce {

/// CSV/JSONL exporters for run results, so traces can be analyzed with
/// external tooling (pandas, gnuplot, ...). One row per task / job; columns
/// documented in the header row.

/// RFC-4180 field escaping: wraps the field in double quotes (doubling any
/// inner quotes) when it contains a comma, quote, or line break; returns it
/// unchanged otherwise. The built-in columns are numeric or bare
/// identifiers, so today's traces are unchanged — the helper keeps any
/// future string column (job names, file paths) from corrupting rows.
std::string csv_escape(const std::string& field);

/// A time_scale column (the executing node's speed factor at assignment —
/// the attempt-trace view of the speed model) is appended when some record's
/// factor is not 1, so uniform-speed traces keep their columns.
void write_map_task_csv(std::ostream& os, const RunResult& result);
void write_reduce_task_csv(std::ostream& os, const RunResult& result);
void write_job_csv(std::ostream& os, const RunResult& result);

/// Attempt-level trace: one row per map AND reduce attempt, with the
/// attempt number and its outcome (success / lost-race / killed / failed).
/// Reduce rows carry "-" for the kind and -1 for the block columns. This is
/// a separate writer so the per-task CSVs above keep their exact columns.
void write_attempt_csv(std::ostream& os, const RunResult& result);

/// Writes all three CSVs to `<prefix>_map_tasks.csv`,
/// `<prefix>_reduce_tasks.csv` and `<prefix>_jobs.csv`. Throws
/// std::runtime_error if a file cannot be opened.
void write_csv_files(const std::string& prefix, const RunResult& result);

}  // namespace dfs::mapreduce
