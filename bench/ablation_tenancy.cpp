// Policy x heterogeneity x tenancy matrix (ISSUE 10 tentpole experiment).
//
// Sweeps the three paper schedulers {LF, BDF, EDF} against a 2x2 grid of
// cluster conditions: slave speed {homogeneous, bimodal stragglers with
// half the slaves at 2x service time} x admission {FIFO, weighted fair
// share}. Every cell runs the same open 2-tenant arrival stream — a batch
// class submitting 3 of every 4 jobs at full size and an interactive class
// submitting 1 of every 4 at quarter size — over several seeds, with
// mid-run failures and repairs injected by the lifecycle driver.
//
// The table reports overall job-latency p50/p95/p99 plus per-tenant p99,
// which is where the claim lives: under FIFO the small interactive jobs
// queue behind full-size batch jobs, so heterogeneity-driven batch
// slowdowns leak straight into the interactive tail; weighted fair
// admission (weights 1:1 over usage = running maps / weight) reorders the
// queue toward the under-served class and decouples the interactive p99
// from the batch class. The scheduler axis shows the effect is orthogonal
// to locality policy — LF/BDF/EDF shift the degraded-read costs, not the
// admission-queue tail.
//
// Usage: ablation_tenancy [--quick] [--seeds N] [--jobs N]
//   --quick shrinks the horizon and seed count to CI size; the table
//   layout is identical, only noisier. --seeds overrides the per-cell
//   sample count either way.

#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "dfs/cluster/simulation.h"
#include "dfs/mapreduce/speed_model.h"
#include "dfs/util/stats.h"
#include "dfs/util/table.h"

using namespace dfs;

namespace {

struct CellStats {
  std::vector<double> p50, p95, p99;
  std::vector<double> tenant_p99[2];
  double measured = 0.0;
};

double mean_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : util::summarize(v).mean;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int seeds = 5, jobs = runner::default_jobs();
  util::FlagTable flags("ablation_tenancy",
                        "policy x heterogeneity x tenancy matrix");
  flags.toggle("quick", &quick, "CI-sized horizon and seed count");
  flags.integer("seeds", &seeds, "[1,inf)",
                "runs per cell (quick: 2)");
  flags.integer("jobs", &jobs, "[1,inf)", "seed-sweep threads (default: all)");
  if (const auto status = flags.parse(argc, argv)) return *status;
  if (quick && !flags.given("seeds")) seeds = 2;

  // Moderate open load so the admission queue is non-trivial but stable:
  // jobs overlap and queue behind each other, which is the regime where
  // admission order matters at all. The bimodal profile doubles service
  // time on half the slaves — a coarse but honest heterogeneity model
  // (cf. the per-task straggler jitter, which is random per attempt; this
  // is a fixed per-slave property).
  cluster::ClusterOptions base;
  base.horizon = quick ? 1200.0 : 3600.0;
  base.warmup = quick ? 200.0 : 600.0;
  base.arrivals.mean_interarrival = 120.0;
  base.lifecycle.node_mttf_hours = 4.0;
  base.arrivals.tenants = {{.arrival_share = 3.0, .job_scale = 1.0},
                           {.arrival_share = 1.0, .job_scale = 0.25}};

  struct Speed {
    const char* name;
    const char* spec;
  };
  const Speed speeds[] = {{"homogeneous", "uniform"},
                          {"bimodal", "bimodal:0.5,2"}};
  const char* admissions[] = {"fifo", "fair"};

  util::Table table({"scheduler", "speed", "admission", "jobs", "p50(s)",
                     "p95(s)", "p99(s)", "batch p99(s)", "interactive p99(s)"});
  for (const char* sched_name : {"LF", "BDF", "EDF"}) {
    for (const Speed& speed : speeds) {
      for (const char* admission : admissions) {
        cluster::ClusterOptions opts = base;
        opts.speed = mapreduce::SpeedModel::parse(speed.spec);
        opts.admission = admission;
        CellStats cell;
        auto samples = bench::sweep_seeds(jobs, seeds, [&](int s) {
          const auto scheduler = core::make_scheduler(sched_name);
          cluster::ClusterSimulation simulation(
              opts, *scheduler, static_cast<std::uint64_t>(s) + 1);
          return simulation.run().summary;
        });
        for (const auto& summary : samples) {
          cell.p50.push_back(summary.latency_p50);
          cell.p95.push_back(summary.latency_p95);
          cell.p99.push_back(summary.latency_p99);
          cell.measured += summary.jobs_measured;
          for (const auto& t : summary.tenants) {
            if (t.tenant >= 0 && t.tenant < 2) {
              cell.tenant_p99[t.tenant].push_back(t.latency_p99);
            }
          }
        }
        table.add_row({sched_name, speed.name, admission,
                       util::Table::num(cell.measured / seeds, 0),
                       util::Table::num(mean_of(cell.p50), 1),
                       util::Table::num(mean_of(cell.p95), 1),
                       util::Table::num(mean_of(cell.p99), 1),
                       util::Table::num(mean_of(cell.tenant_p99[0]), 1),
                       util::Table::num(mean_of(cell.tenant_p99[1]), 1)});
      }
    }
  }
  std::cout << "ablation_tenancy: " << (quick ? "quick " : "")
            << base.horizon / 60.0 << " min horizon, 2-tenant stream "
            << "(3:1 shares, 1.0/0.25 job scale), " << seeds
            << " seeds (percentiles averaged across seeds)\n"
            << table;
  return 0;
}
