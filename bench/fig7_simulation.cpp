// Reproduces Figure 7 of the paper: discrete-event simulation of
// locality-first (LF) vs enhanced degraded-first (EDF) scheduling on the
// default 40-node / 4-rack cluster, reporting normalized runtimes
// (failure mode over normal mode) as boxplots over N random cluster
// configurations (the paper uses 30).
//
//   (a) vs erasure coding scheme (n,k)       — paper: EDF cuts 17.4%-32.9%
//   (b) vs number of native blocks F         — paper: 34.8%-39.6%
//   (c) vs rack download bandwidth W         — paper: up to 35.1% @500Mbps
//   (d) vs failure pattern                   — paper: 33.2%/22.3%/5.9%
//   (e) vs shuffle volume                    — paper: 20.0%-33.2%
//   (f) multiple jobs (10, FIFO)             — paper: 28.6%-48.6% per job
//
// Usage: fig7_simulation [--seeds N] [--jobs N]
//   --seeds: configurations per setting (default 30)
//   --jobs:  worker threads for the seed sweep (default: all hardware
//            threads; output is byte-identical for any value)

#include <functional>
#include <iostream>

#include "common.h"
#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"

using namespace dfs;
using bench::boxplot_cells;
using bench::boxplot_header;

namespace {

int g_seeds = 30;
int g_jobs = runner::default_jobs();

/// Runs one panel setting for both schedulers and appends two table rows.
/// Seeds fan out across the sweep pool; every cell builds its own scheduler
/// pair so no state is shared between concurrent simulations.
void panel_rows(
    util::Table& table, const std::string& label,
    const mapreduce::ClusterConfig& cfg, const workload::SimJobOptions& opts,
    const std::function<storage::FailureScenario(util::Rng&)>& make_failure) {
  struct Sample {
    double lf = 0.0;
    double edf = 0.0;
  };
  const auto samples = bench::sweep_seeds(g_jobs, g_seeds, [&](int s) {
    util::Rng rng(static_cast<std::uint64_t>(s) * 7919 + 17);
    const auto job = workload::make_sim_job(0, opts, cfg.topology, rng);
    const auto failure = make_failure(rng);
    const std::uint64_t sim_seed = static_cast<std::uint64_t>(s) + 1;
    core::LocalityFirstScheduler lf;
    auto edf = core::DegradedFirstScheduler::enhanced();
    return Sample{
        bench::normalized_runtime_sample(cfg, job, failure, lf, sim_seed),
        bench::normalized_runtime_sample(cfg, job, failure, edf, sim_seed)};
  });
  std::vector<double> lf_norm, edf_norm;
  for (const Sample& s : samples) {
    lf_norm.push_back(s.lf);
    edf_norm.push_back(s.edf);
  }
  const auto lf_box = util::boxplot(lf_norm);
  const auto edf_box = util::boxplot(edf_norm);
  auto lf_cells = boxplot_cells(lf_box);
  lf_cells.insert(lf_cells.begin(), label + " LF");
  lf_cells.push_back("");
  auto edf_cells = boxplot_cells(edf_box);
  edf_cells.insert(edf_cells.begin(), label + " EDF");
  edf_cells.push_back(util::Table::pct(
      util::reduction_percent(lf_box.mean, edf_box.mean), 1));
  table.add_row(std::move(lf_cells));
  table.add_row(std::move(edf_cells));
}

util::Table panel_table() {
  auto header = boxplot_header("setting");
  header.push_back("EDF cut");
  return util::Table(header);
}

std::function<storage::FailureScenario(util::Rng&)> single_failure(
    const net::Topology& topo) {
  return [&topo](util::Rng& rng) {
    return storage::single_node_failure(topo, rng);
  };
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagTable flags("fig7_simulation", "Figure 7: LF vs EDF simulation");
  flags.integer("seeds", &g_seeds, "[1,inf)", "configurations per setting");
  flags.integer("jobs", &g_jobs, "[1,inf)",
                "seed-sweep threads (default: all)");
  if (const auto status = flags.parse(argc, argv)) return *status;
  std::cout << "Figure 7: simulation, normalized runtimes over " << g_seeds
            << " random configurations per setting\n"
            << "Cluster: 40 nodes / 4 racks, 1 Gbps racks, 128 MB blocks, "
               "4 map + 1 reduce slots per node.\n"
            << "Default job: 1440 blocks, (20,15) RS, map N(20,1), reduce "
               "N(30,2), 30 reducers, 1% shuffle.\n";
  const auto cfg = workload::default_sim_cluster();

  util::print_section(std::cout, "Fig 7(a): vs erasure coding scheme (n,k)");
  {
    auto t = panel_table();
    for (const auto& [n, k] :
         {std::pair{8, 6}, {12, 9}, {16, 12}, {20, 15}}) {
      workload::SimJobOptions opts;
      opts.n = n;
      opts.k = k;
      panel_rows(t, "(" + std::to_string(n) + "," + std::to_string(k) + ")",
                 cfg, opts, single_failure(cfg.topology));
    }
    std::cout << t << "Paper: EDF cut grows from 17.4% at (8,6) to 32.9% at "
                      "(20,15).\n";
  }

  util::print_section(std::cout, "Fig 7(b): vs number of native blocks F");
  {
    auto t = panel_table();
    for (const int f : {720, 1440, 2160, 2880}) {
      workload::SimJobOptions opts;
      opts.num_blocks = f;
      panel_rows(t, "F=" + std::to_string(f), cfg, opts,
                 single_failure(cfg.topology));
    }
    std::cout << t << "Paper: EDF cut 34.8%-39.6%.\n";
  }

  util::print_section(std::cout, "Fig 7(c): vs rack download bandwidth W");
  {
    auto t = panel_table();
    for (const double mbps : {250.0, 500.0, 1000.0}) {
      auto c = cfg;
      c.links.rack_up = util::megabits_per_sec(mbps);
      c.links.rack_down = util::megabits_per_sec(mbps);
      panel_rows(t, util::Table::num(mbps, 0) + "Mbps", c,
                 workload::SimJobOptions{}, single_failure(c.topology));
    }
    std::cout << t << "Paper: both rise as W falls; EDF cuts up to 35.1% at "
                      "500 Mbps.\n";
  }

  util::print_section(std::cout, "Fig 7(d): vs failure pattern");
  {
    auto t = panel_table();
    panel_rows(t, "1-node", cfg, workload::SimJobOptions{},
               single_failure(cfg.topology));
    panel_rows(t, "2-node", cfg, workload::SimJobOptions{},
               [&](util::Rng& rng) {
                 return storage::double_node_failure(cfg.topology, rng);
               });
    panel_rows(t, "rack", cfg, workload::SimJobOptions{},
               [&](util::Rng& rng) {
                 return storage::rack_failure(cfg.topology, rng);
               });
    std::cout << t << "Paper: EDF cuts 33.2% / 22.3% / 5.9% for 1-node / "
                      "2-node / rack failures.\n";
  }

  util::print_section(std::cout, "Fig 7(e): vs shuffle volume");
  {
    auto t = panel_table();
    for (const double ratio : {0.01, 0.05, 0.10, 0.20, 0.30}) {
      workload::SimJobOptions opts;
      opts.shuffle_ratio = ratio;
      panel_rows(t, util::Table::num(ratio * 100, 0) + "%", cfg, opts,
                 single_failure(cfg.topology));
    }
    std::cout << t << "Paper: LF flat, EDF's cut shrinks from 33.2% to 20.0% "
                      "as shuffle grows.\n";
  }

  util::print_section(std::cout,
                      "Fig 7(f): multiple jobs (10 jobs, exp(120s) arrivals)");
  {
    const int kJobs = 10;
    // Normalized per-job runtimes over the same workload in normal mode.
    std::vector<std::vector<double>> lf_norm(kJobs), edf_norm(kJobs);
    const int multi_seeds = std::max(1, g_seeds / 3);
    struct MultiSample {
      std::vector<double> lf, edf;  // one entry per job
    };
    const auto samples =
        bench::sweep_seeds(g_jobs, multi_seeds, [&](int s) {
          util::Rng rng(static_cast<std::uint64_t>(s) * 104729 + 5);
          const auto jobs = workload::make_multi_job_workload(
              kJobs, 120.0, workload::SimJobOptions{}, cfg.topology, rng);
          const auto failure = storage::single_node_failure(cfg.topology, rng);
          const std::uint64_t sim_seed = static_cast<std::uint64_t>(s) + 1;
          core::LocalityFirstScheduler lf;
          auto edf = core::DegradedFirstScheduler::enhanced();
          const auto rl =
              mapreduce::simulate(cfg, jobs, failure, lf, sim_seed);
          const auto re =
              mapreduce::simulate(cfg, jobs, failure, edf, sim_seed);
          const auto rn = mapreduce::simulate(cfg, jobs,
                                              storage::no_failure(), lf,
                                              sim_seed);
          MultiSample out;
          for (int j = 0; j < kJobs; ++j) {
            const auto ji = static_cast<std::size_t>(j);
            out.lf.push_back(rl.jobs[ji].runtime() / rn.jobs[ji].runtime());
            out.edf.push_back(re.jobs[ji].runtime() / rn.jobs[ji].runtime());
          }
          return out;
        });
    for (const MultiSample& s : samples) {
      for (int j = 0; j < kJobs; ++j) {
        const auto ji = static_cast<std::size_t>(j);
        lf_norm[ji].push_back(s.lf[ji]);
        edf_norm[ji].push_back(s.edf[ji]);
      }
    }
    util::Table t({"job", "LF median", "EDF median", "EDF cut (means)"});
    for (int j = 0; j < kJobs; ++j) {
      const auto ji = static_cast<std::size_t>(j);
      const auto bl = util::boxplot(lf_norm[ji]);
      const auto be = util::boxplot(edf_norm[ji]);
      t.add_row({"job " + std::to_string(j), util::Table::num(bl.median, 2),
                 util::Table::num(be.median, 2),
                 util::Table::pct(util::reduction_percent(bl.mean, be.mean),
                                  1)});
    }
    std::cout << t << "Paper: EDF cuts each job's normalized runtime by "
                      "28.6%-48.6%.\n";
  }
  return 0;
}
