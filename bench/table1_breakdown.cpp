// Reproduces Table I of the paper: average runtime (seconds) of each task
// type — normal map (local + remote), degraded map, and reduce — for the
// three testbed jobs in the single-job scenario, under LF and EDF.
//
// Paper reference (LF -> EDF):
//   WordCount: normal 30.94->29.12, degraded 84.97->48.42 (-43.0%),
//              reduce 247.90->182.05
//   Grep:      normal 11.69->10.43, degraded 77.97->50.96 (-34.6%),
//              reduce 161.08->122.60
//   LineCount: normal 35.91->33.25, degraded 91.48->47.88 (-47.7%),
//              reduce 273.70->199.35
//
// Usage: table1_breakdown [--seeds N]   (default 5 runs, like the paper)

#include <iostream>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"

using namespace dfs;

namespace {

struct Breakdown {
  double normal_map = 0;
  double degraded_map = 0;
  double reduce = 0;
  int count = 0;

  void add(const mapreduce::RunResult& r) {
    normal_map += r.mean_normal_map_runtime();
    degraded_map += r.mean_map_runtime(mapreduce::MapTaskKind::kDegraded);
    reduce += r.mean_reduce_runtime();
    ++count;
  }
  double nm() const { return normal_map / count; }
  double dm() const { return degraded_map / count; }
  double rd() const { return reduce / count; }
};

}  // namespace

int main(int argc, char** argv) {
  int runs = 5;
  util::FlagTable flags("table1_breakdown", "Table I: runtime per task type");
  flags.integer("seeds", &runs, "[1,inf)", "runs per job");
  if (const auto status = flags.parse(argc, argv)) return *status;
  const auto cfg = workload::testbed_cluster();
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();

  std::cout << "Table I: average task runtimes (s), simulated testbed, "
               "single-job scenario, single-node failure, "
            << runs << " runs\n";
  std::cout << "(220 normal map tasks, 20 degraded map tasks, 8 reduce tasks "
               "per run)\n";

  util::Table t({"job", "type", "LF", "EDF", "EDF cut", "paper LF",
                 "paper EDF"});
  const workload::TestbedJobKind kinds[] = {
      workload::TestbedJobKind::kWordCount, workload::TestbedJobKind::kGrep,
      workload::TestbedJobKind::kLineCount};
  const double paper_lf[3][3] = {{30.94, 84.97, 247.90},
                                 {11.69, 77.97, 161.08},
                                 {35.91, 91.48, 273.70}};
  const double paper_edf[3][3] = {{29.12, 48.42, 182.05},
                                  {10.43, 50.96, 122.60},
                                  {33.25, 47.88, 199.35}};

  for (int j = 0; j < 3; ++j) {
    Breakdown bl, be;
    for (int r = 0; r < runs; ++r) {
      util::Rng rng(static_cast<std::uint64_t>(r) * 773 + 13);
      const auto job = workload::make_testbed_job(0, kinds[j]);
      const auto failure = storage::single_node_failure(cfg.topology, rng);
      const std::uint64_t seed = static_cast<std::uint64_t>(r) + 1;
      bl.add(mapreduce::simulate(cfg, {job}, failure, lf, seed));
      be.add(mapreduce::simulate(cfg, {job}, failure, edf, seed));
    }
    const char* name = workload::to_string(kinds[j]);
    auto row = [&](const char* type, double l, double e, double pl,
                   double pe) {
      t.add_row({name, type, util::Table::num(l, 2), util::Table::num(e, 2),
                 util::Table::pct(util::reduction_percent(l, e), 1),
                 util::Table::num(pl, 2), util::Table::num(pe, 2)});
    };
    row("normal map", bl.nm(), be.nm(), paper_lf[j][0], paper_edf[j][0]);
    row("degraded map", bl.dm(), be.dm(), paper_lf[j][1], paper_edf[j][1]);
    row("reduce", bl.rd(), be.rd(), paper_lf[j][2], paper_edf[j][2]);
  }
  std::cout << t
            << "Paper shape: degraded-map runtime cut by 43.0% / 34.6% / "
               "47.7%; reduce runtimes cut ~26%;\nnormal maps essentially "
               "unchanged.\n";
  return 0;
}
