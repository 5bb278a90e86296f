#pragma once

// Shared pieces of the perf harnesses (perf_regression, scale_regression):
// wall-clock timing, reading and writing their JSON reports, and the
// baseline gate that compares a run's events/sec against a committed report.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

namespace dfs::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The whole file, or nullopt if it cannot be opened.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Crude but sufficient extraction of `"key": <number>` following
/// `"section"` in a JSON report these harnesses wrote. Returns 0 when absent.
inline double extract_number(const std::string& json,
                             const std::string& section,
                             const std::string& key) {
  const auto sec = json.find('"' + section + '"');
  if (sec == std::string::npos) return 0.0;
  const auto pos = json.find('"' + key + "\":", sec);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + key.size() + 3, nullptr);
}

/// Companion to extract_number for `"key": "value"` string fields. Returns
/// "" when absent.
inline std::string extract_string(const std::string& json,
                                  const std::string& section,
                                  const std::string& key) {
  const auto sec = json.find('"' + section + '"');
  if (sec == std::string::npos) return "";
  const auto pos = json.find('"' + key + "\": \"", sec);
  if (pos == std::string::npos) return "";
  const auto start = pos + key.size() + 5;
  const auto end = json.find('"', start);
  if (end == std::string::npos) return "";
  return json.substr(start, end - start);
}

/// Writes `json` to `path`, echoes it to stdout and names the path on
/// stderr. Returns false if `path` cannot be opened for writing.
inline bool write_report(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  if (!out) return false;
  out << json;
  out.close();
  std::cout << json;
  std::cerr << "report written to " << path << "\n";
  return true;
}

/// Gates a run's `events_per_sec` numbers against a committed report: each
/// call prints the section's reading and floor, and a reading more than
/// `max_regress` below the baseline fails the run (`hard`) or only warns.
struct BaselineGate {
  std::string baseline;  ///< the committed report's text
  double max_regress = 0.25;
  bool failed = false;

  void operator()(const std::string& section, double current,
                  bool hard = true) {
    const double ref = extract_number(baseline, section, "events_per_sec");
    if (ref <= 0.0) {
      std::cerr << "baseline: no " << section << " events_per_sec; skipped\n";
      return;
    }
    const double floor = ref * (1.0 - max_regress);
    std::cerr << "baseline " << section << ": " << std::fixed
              << std::setprecision(0) << current << " vs " << ref
              << " (floor " << floor << ")\n";
    if (current >= floor) return;
    if (hard) {
      std::cerr << "FAIL: " << section << " events/sec regressed more than "
                << max_regress * 100.0 << "%\n";
      failed = true;
    } else {
      std::cerr << "WARN: " << section << " events/sec more than "
                << max_regress * 100.0
                << "% below a different-backend baseline; not gating\n";
    }
  }

  /// The run's exit status: 1 if a hard gate failed, else 0.
  int status() const {
    if (failed) return 1;
    std::cerr << "baseline check passed\n";
    return 0;
  }
};

}  // namespace dfs::bench
