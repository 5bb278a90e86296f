// Reproduces Figure 9 of the paper: the 13-node Hadoop testbed experiments
// (1 master + 12 slaves in 3 racks, 1 Gbps links, 64 MB blocks, (12,10) RS,
// 240 blocks round-robin, 4 map + 1 reduce slots, 8 reducers), replayed on
// the simulated testbed. WordCount / Grep / LineCount job profiles are
// calibrated from Table I's measured per-task runtimes.
//
//   (a) single-job runtimes  — paper: EDF cuts LF by 27.0% / 26.1% / 24.8%
//   (b) multi-job runtimes   — paper: EDF cuts 16.6% / 28.4% / 22.6%
//
// Each bar is the average of 5 runs with min/max whiskers, as in the paper.
//
// Usage: fig9_testbed [--seeds N]   (default 5 runs, like the paper)

#include <iostream>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"

using namespace dfs;

namespace {

int g_runs = 5;

constexpr workload::TestbedJobKind kJobs[] = {
    workload::TestbedJobKind::kWordCount, workload::TestbedJobKind::kGrep,
    workload::TestbedJobKind::kLineCount};

struct Bar {
  double mean = 0, min = 0, max = 0;
};

Bar bar(const std::vector<double>& xs) {
  const auto s = util::summarize(xs);
  return {s.mean, s.min, s.max};
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagTable flags("fig9_testbed", "Figure 9: testbed experiments");
  flags.integer("seeds", &g_runs, "[1,inf)", "runs per bar");
  if (const auto status = flags.parse(argc, argv)) return *status;
  const auto cfg = workload::testbed_cluster();
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  std::cout << "Figure 9: simulated 12-slave testbed, single-node failure, "
            << g_runs << " runs per bar\n";

  util::print_section(std::cout, "Fig 9(a): single-job scenario");
  {
    util::Table t({"job", "LF mean (s)", "LF [min,max]", "EDF mean (s)",
                   "EDF [min,max]", "EDF cut"});
    for (const auto kind : kJobs) {
      std::vector<double> lf_rt, edf_rt;
      for (int r = 0; r < g_runs; ++r) {
        util::Rng rng(static_cast<std::uint64_t>(r) * 911 + 7);
        const auto job = workload::make_testbed_job(0, kind);
        const auto failure = storage::single_node_failure(cfg.topology, rng);
        const std::uint64_t seed = static_cast<std::uint64_t>(r) + 1;
        lf_rt.push_back(mapreduce::simulate(cfg, {job}, failure, lf, seed)
                            .single_job_runtime());
        edf_rt.push_back(mapreduce::simulate(cfg, {job}, failure, edf, seed)
                             .single_job_runtime());
      }
      const Bar bl = bar(lf_rt);
      const Bar be = bar(edf_rt);
      t.add_row({workload::to_string(kind), util::Table::num(bl.mean, 1),
                 "[" + util::Table::num(bl.min, 1) + "," +
                     util::Table::num(bl.max, 1) + "]",
                 util::Table::num(be.mean, 1),
                 "[" + util::Table::num(be.min, 1) + "," +
                     util::Table::num(be.max, 1) + "]",
                 util::Table::pct(util::reduction_percent(bl.mean, be.mean),
                                  1)});
    }
    std::cout << t << "Paper: EDF cuts 27.0% / 26.1% / 24.8%; LF shows the "
                      "larger variance (no rack awareness).\n";
  }

  util::print_section(std::cout,
                      "Fig 9(b): multi-job scenario (WordCount, Grep, "
                      "LineCount submitted back-to-back, FIFO)");
  {
    util::Table t({"job", "LF mean (s)", "EDF mean (s)", "EDF cut"});
    std::vector<std::vector<double>> lf_rt(3), edf_rt(3);
    for (int r = 0; r < g_runs; ++r) {
      util::Rng rng(static_cast<std::uint64_t>(r) * 1213 + 11);
      std::vector<mapreduce::JobInput> jobs;
      for (int j = 0; j < 3; ++j) {
        // Submitted "in a short time" (§VI): a few seconds apart.
        jobs.push_back(workload::make_testbed_job(j, kJobs[j], 2.0 * j));
      }
      const auto failure = storage::single_node_failure(cfg.topology, rng);
      const std::uint64_t seed = static_cast<std::uint64_t>(r) + 1;
      const auto rl = mapreduce::simulate(cfg, jobs, failure, lf, seed);
      const auto re = mapreduce::simulate(cfg, jobs, failure, edf, seed);
      for (int j = 0; j < 3; ++j) {
        lf_rt[static_cast<std::size_t>(j)].push_back(
            rl.jobs[static_cast<std::size_t>(j)].runtime());
        edf_rt[static_cast<std::size_t>(j)].push_back(
            re.jobs[static_cast<std::size_t>(j)].runtime());
      }
    }
    for (int j = 0; j < 3; ++j) {
      const Bar bl = bar(lf_rt[static_cast<std::size_t>(j)]);
      const Bar be = bar(edf_rt[static_cast<std::size_t>(j)]);
      t.add_row({workload::to_string(kJobs[j]), util::Table::num(bl.mean, 1),
                 util::Table::num(be.mean, 1),
                 util::Table::pct(util::reduction_percent(bl.mean, be.mean),
                                  1)});
    }
    std::cout << t << "Paper: EDF cuts 16.6% / 28.4% / 22.6% (WordCount "
                      "benefits least: its degraded tasks compete with the "
                      "previous job's shuffle).\n";
  }
  return 0;
}
