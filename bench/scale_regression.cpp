// scale_regression — machine-readable performance harness for the 10k-slave
// scale tier. Where perf_regression guards micro hot paths (kernel, network
// engine, coding kernels), this harness runs the whole online cluster stack
// — arrivals, Master + phase engines, fair-share network, lifecycle — at two
// sizes far beyond the paper's 12-slave testbed and reports end-to-end
// events/sec, wall time, CPU time, and peak RSS:
//
//   * quick:  2,000 slaves (200 racks x 10), ~300 jobs / ~76k map tasks over
//             a 300 s admission window — CI-sized, the gated workload.
//   * full:  10,000 slaves (1,000 racks x 10), ~2,100 jobs / ~1.07M map
//             tasks over a 840 s admission window — the committed
//             BENCH_scale.json macro number.
//
// The scale cluster is the paper's §V-B shape scaled up: 10 nodes per rack,
// 4 map + 1 reduce slots, 128 MiB blocks, 3 s heartbeats, but with 40 Gbps
// rack uplinks (a 1 Gbps top-of-rack link cannot feed a 10k-node cluster
// whose data locality is necessarily thin — ~5% of nodes hold any given
// job's blocks — and modern clusters of this size run 25–100 Gbps fabrics).
// Node MTTF is scaled so a handful of failures land inside the window, the
// same regime as the paper-scale defaults.
//
// The JSON report goes to --out (default the gitignored BENCH_scale_ci.json;
// regenerate the committed baseline with --out BENCH_scale.json). With
// --baseline PATH the run compares its events/sec against the committed
// baseline and exits 1 if any section regressed by more than --max-regress
// (default 0.25) — the CI scale gate. With --prev PATH (a report produced by
// this same harness on an older build) the full section embeds that run's
// events/sec and the resulting speedup, recording pre/post comparisons
// measured by the same harness on the same hardware.
//
// --help lists every flag.

#include <sys/resource.h>

#include <ctime>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common.h"
#include "report.h"
#include "dfs/cluster/simulation.h"
#include "dfs/core/scheduler.h"
#include "dfs/net/topology.h"
#include "dfs/util/flags.h"

using namespace dfs;
using bench::Clock;
using bench::seconds_since;

namespace {

/// Process high-water RSS in MiB (ru_maxrss is KiB on Linux). Monotone over
/// the process lifetime, so run the big case last and read after each case.
double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// CPU time this process has used, in seconds. Unlike wall time it leaves
/// out time the host gave to other tenants (steal on a shared VM).
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct ScaleCase {
  const char* name;
  int racks;
  int nodes_per_rack;
  int blocks_per_job;        ///< map tasks per job
  double mean_interarrival;  ///< seconds between submissions
  double horizon;            ///< admission window (jobs still drain after)
};

/// The §V-B cluster shape scaled to `racks` x `nodes_per_rack`, with the
/// rack fabric upgraded to 40 Gbps (see file comment) and node MTTF scaled
/// so roughly ten failure/repair cycles land inside the full window.
cluster::ClusterOptions scale_options(const ScaleCase& c) {
  cluster::ClusterOptions opts;
  opts.config.topology = net::Topology(c.racks, c.nodes_per_rack);
  opts.config.links.rack_up = util::gigabits_per_sec(40.0);
  opts.config.links.rack_down = util::gigabits_per_sec(40.0);
  opts.arrivals.job.num_blocks = c.blocks_per_job;
  opts.arrivals.mean_interarrival = c.mean_interarrival;
  opts.horizon = c.horizon;
  opts.warmup = c.horizon / 10.0;
  // 240 h per-node MTTF: ~10 expected failures over the full case's window
  // (10,000 nodes x 840 s), a paper-regime failure load rather than the
  // constant churn the 6 h paper-scale default would give at 10k nodes.
  opts.lifecycle.node_mttf_hours = 240.0;
  return opts;
}

struct CaseResult {
  int slaves = 0;
  int jobs_submitted = 0;
  int jobs_completed = 0;
  long long map_task_records = 0;
  long long events = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double events_per_sec = 0.0;
  double peak_rss_mb = 0.0;
};

CaseResult run_case(const ScaleCase& c, std::uint64_t seed) {
  const auto opts = scale_options(c);
  const auto scheduler = core::make_scheduler("BDF");
  std::cerr << "scale " << c.name << ": " << c.racks * c.nodes_per_rack
            << " slaves, ~" << static_cast<int>(c.horizon / c.mean_interarrival)
            << " jobs x " << c.blocks_per_job << " maps, horizon " << c.horizon
            << " s\n";
  cluster::ClusterSimulation simulation(opts, *scheduler, seed);
  const auto start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  const auto result = simulation.run();
  CaseResult out;
  out.wall_seconds = seconds_since(start);
  out.cpu_seconds = process_cpu_seconds() - cpu_start;
  out.slaves = c.racks * c.nodes_per_rack;
  out.jobs_submitted = result.summary.jobs_submitted;
  out.jobs_completed = result.summary.jobs_completed;
  out.map_task_records = static_cast<long long>(result.run.map_tasks.size());
  out.events = static_cast<long long>(simulation.simulator().events_executed());
  out.events_per_sec = out.wall_seconds > 0.0
                           ? static_cast<double>(out.events) / out.wall_seconds
                           : 0.0;
  out.peak_rss_mb = peak_rss_mb();
  std::cerr << "scale " << c.name << ": " << out.events << " events in "
            << std::fixed << std::setprecision(1) << out.wall_seconds << " s ("
            << out.cpu_seconds << " s CPU, "
            << std::setprecision(0) << out.events_per_sec
            << " events/sec), peak RSS " << out.peak_rss_mb << " MiB\n";
  return out;
}

void write_section(std::ostringstream& json, const char* name,
                   const CaseResult& r) {
  json << "  \"" << name << "\": {\n"
       << "    \"slaves\": " << r.slaves << ",\n"
       << "    \"jobs_submitted\": " << r.jobs_submitted << ",\n"
       << "    \"jobs_completed\": " << r.jobs_completed << ",\n"
       << "    \"map_task_records\": " << r.map_task_records << ",\n"
       << "    \"events\": " << r.events << ",\n"
       << "    \"wall_seconds\": " << r.wall_seconds << ",\n"
       << "    \"cpu_seconds\": " << r.cpu_seconds << ",\n"
       << "    \"events_per_sec\": " << r.events_per_sec << ",\n"
       << "    \"peak_rss_mb\": " << r.peak_rss_mb;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_scale_ci.json";
  std::optional<std::string> baseline_path, prev_path;
  double max_regress = 0.25;
  int seed = 1;
  util::FlagTable flags("scale_regression",
                        "10k-slave cluster macro perf harness");
  flags.toggle("quick", &quick, "2k-slave case only (CI-sized)");
  flags.text("out", &out_path, "JSON report path");
  flags.text("baseline", &baseline_path,
             "committed report to gate events/sec against");
  flags.number("max-regress", &max_regress, "[0,1)",
               "allowed fractional regression");
  flags.text("prev", &prev_path,
             "prior report; embed its full-case events/sec + speedup");
  flags.integer("seed", &seed, "[0,inf)", "arrival/placement seed");
  if (const auto status = flags.parse(argc, argv)) return *status;
  // Read the input reports before the runs, so a bad path fails at once.
  std::optional<std::string> base;
  if (baseline_path && !(base = bench::read_file(*baseline_path))) {
    return flags.fail("cannot read baseline " + *baseline_path);
  }
  double prev_full_rate = 0.0;
  if (prev_path) {
    const auto prev = bench::read_file(*prev_path);
    if (!prev) return flags.fail("cannot read prev report " + *prev_path);
    prev_full_rate =
        bench::extract_number(*prev, "scale_full", "events_per_sec");
    if (prev_full_rate <= 0.0) {
      return flags.fail("prev report has no scale_full events_per_sec");
    }
  }

  // Quick first so the full case's peak-RSS reading is not polluted by a
  // later, smaller allocation pattern (ru_maxrss is a process high-water).
  // Block counts are multiples of k=15 (the (20,15) archive/job code).
  const ScaleCase quick_case{"quick", 200, 10, 255, 1.0, 300.0};
  const ScaleCase full_case{"full", 1000, 10, 510, 0.4, 840.0};

  const CaseResult quick_result = run_case(quick_case, seed);
  CaseResult full_result;
  if (!quick) full_result = run_case(full_case, seed);

  std::ostringstream json;
  json << std::setprecision(10);
  json << "{\n"
       << "  \"schema\": 1,\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"seed\": " << seed << ",\n";
  write_section(json, "scale_quick", quick_result);
  if (!quick) {
    json << "\n  },\n";
    write_section(json, "scale_full", full_result);
    if (prev_full_rate > 0.0) {
      json << ",\n"
           << "    \"baseline_events_per_sec\": " << prev_full_rate << ",\n"
           << "    \"speedup_vs_baseline\": "
           << full_result.events_per_sec / prev_full_rate;
    }
  }
  json << "\n  }\n}\n";

  if (!bench::write_report(out_path, json.str())) {
    return flags.fail("cannot write " + out_path);
  }

  if (!base) return 0;
  bench::BaselineGate gate{*base, max_regress};
  gate("scale_quick", quick_result.events_per_sec);
  if (!quick) gate("scale_full", full_result.events_per_sec);
  return gate.status();
}
