// Hedged degraded-read ablation: redundancy r (extra hedge fetches) x
// straggler severity x LF/DF/EDF on the online cluster, plus a validation
// leg that drives the FetchSupervisor directly in a homogeneous-Poisson
// configuration and checks the simulated read-latency tail against the
// MDS-queue analytic bounds (k-th order statistic of n' = k + r iid
// exponential service times — the fork-join lower bound the hedging
// literature prices (n, k) reads with).
//
//   ablation_hedging [--seeds N]   (default 3)
//
// The sweep holds the offered load fixed while raising r, so the table
// exposes the paper-adjacent robustness claim directly: under straggler
// injection, the p99 degraded-read latency must fall monotonically as r
// grows, and the homogeneous-Poisson leg must land within the analytic
// bounds (tolerance band printed per row).

#include "common.h"

#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>

#include "dfs/cluster/simulation.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/mapreduce/fetch_supervisor.h"
#include "dfs/mapreduce/metrics.h"
#include "dfs/net/network.h"
#include "dfs/sim/simulator.h"
#include "dfs/storage/degraded.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"
#include "dfs/util/units.h"

using namespace dfs;

namespace {

struct Severity {
  const char* name;
  mapreduce::StragglerConfig straggler;
};

/// n-th harmonic number.
double harmonic(int n) {
  double h = 0.0;
  for (int i = 1; i <= n; ++i) h += 1.0 / i;
  return h;
}

/// P[k-th order statistic of n iid Exp(mean) <= t]: at least k of n done.
double order_stat_cdf(int n, int k, double mean, double t) {
  const double p = 1.0 - std::exp(-t / mean);
  double prob = 0.0;
  // sum_{j=k}^{n} C(n,j) p^j (1-p)^(n-j), C built incrementally.
  double coeff = 1.0;  // C(n,0)
  for (int j = 0; j <= n; ++j) {
    if (j >= k) {
      prob += coeff * std::pow(p, j) * std::pow(1.0 - p, n - j);
    }
    coeff = coeff * (n - j) / (j + 1);
  }
  return prob;
}

/// Analytic percentile of the k-th order statistic, by bisection.
double order_stat_percentile(int n, int k, double mean, double q) {
  double lo = 0.0, hi = mean;
  while (order_stat_cdf(n, k, mean, hi) < q) hi *= 2.0;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    (order_stat_cdf(n, k, mean, mid) < q ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 3;
  util::FlagTable flags("ablation_hedging",
                        "hedged degraded reads vs stragglers");
  flags.integer("seeds", &seeds, "[1,inf)", "runs per cell");
  if (const auto status = flags.parse(argc, argv)) return *status;

  // --- sweep: redundancy r x straggler severity x scheduler -----------------
  // Moderate load: at the defaults the rack links saturate and queueing
  // delay (hundreds of seconds) swamps any straggler effect, so the sweep
  // would measure the scheduler's queue, not the hedge. Doubling the mean
  // interarrival keeps degraded reads transfer-bound, where straggler
  // service jitter is the dominant tail term hedging can actually cut.
  cluster::ClusterOptions base;
  base.horizon = 1800.0;
  base.warmup = 300.0;
  base.arrivals.mean_interarrival = 150.0;
  base.lifecycle.node_mttf_hours = 2.0;  // a few failures per run
  // No per-fetch timeout: under contention a deadline below the honest
  // transfer time turns into a retry storm; replans are driven by the
  // transient-failure injection alone.
  base.config.fetch.timeout = 0.0;
  base.config.fetch.max_retries = 2;
  base.config.fetch.retry_backoff = 1.0;

  const Severity severities[] = {
      {"mild", [] {
         mapreduce::StragglerConfig s;
         s.fraction = 0.1;
         s.slowdown = 6.0;
         s.service_mean = 1.0;
         s.pareto_alpha = 0.0;  // exponential jitter
         s.fail_prob = 0.01;
         return s;
       }()},
      {"harsh", [] {
         mapreduce::StragglerConfig s;
         s.fraction = 0.2;
         s.slowdown = 10.0;
         s.service_mean = 3.0;
         s.pareto_alpha = 1.5;  // heavy tail
         s.fail_prob = 0.05;
         return s;
       }()},
  };

  util::Table table({"scheduler", "severity", "r", "read p50(s)",
                     "read p99(s)", "read p999(s)", "job p99(s)", "hedges",
                     "cancelled", "retries", "replans"});
  for (const char* name : {"LF", "BDF", "EDF"}) {
    const auto scheduler = core::make_scheduler(name);
    for (const Severity& sev : severities) {
      for (int r = 0; r <= 2; ++r) {
        cluster::ClusterOptions opts = base;
        opts.config.straggler = sev.straggler;
        opts.config.hedge.enabled = r > 0;
        opts.config.hedge.extra_sources = r;
        std::vector<double> p50, p99, p999, job_p99;
        std::uint64_t hedges = 0, cancelled = 0, retries = 0, replans = 0;
        for (int s = 0; s < seeds; ++s) {
          cluster::ClusterSimulation simulation(
              opts, *scheduler, static_cast<std::uint64_t>(s) + 1);
          const auto result = simulation.run();
          p50.push_back(result.summary.degraded_read_p50);
          p99.push_back(result.summary.degraded_read_p99);
          p999.push_back(result.summary.degraded_read_p999);
          job_p99.push_back(result.summary.latency_p99);
          hedges += result.summary.hedge.hedges_launched;
          cancelled += result.summary.hedge.losers_cancelled;
          retries += result.summary.hedge.fetch_retries;
          replans += result.summary.hedge.fallback_replans;
        }
        table.add_row({name, sev.name, std::to_string(r),
                       util::Table::num(util::summarize(p50).mean, 2),
                       util::Table::num(util::summarize(p99).mean, 2),
                       util::Table::num(util::summarize(p999).mean, 2),
                       util::Table::num(util::summarize(job_p99).mean, 1),
                       std::to_string(hedges), std::to_string(cancelled),
                       std::to_string(retries), std::to_string(replans)});
      }
    }
  }
  std::cout << "ablation_hedging: 0.5 h horizon, straggler/transient fault "
               "injection, fixed load, "
            << seeds << " seeds (percentiles averaged across seeds)\n"
            << table;

  // --- validation: homogeneous-Poisson fetch service vs MDS-queue bounds ----
  //
  // The supervisor is driven directly: RS(8,4), every link unlimited (the
  // network delivers instantly), exponential per-fetch service jitter with
  // mean 1 s, no stragglers, no transient failures. A hedged read launching
  // n' = k + r fetches then completes exactly at the k-th order statistic of
  // n' iid Exp(1) draws, whose mean and percentiles are closed-form — the
  // simulated tail must land inside a +-10% band around them.
  const double mean_service = 1.0;
  const int reads_per_r = 4000;
  util::Table validation({"r", "n'", "mean sim(s)", "mean mds(s)", "err",
                          "p99 sim(s)", "p99 mds(s)", "err", "verdict"});
  bool all_within = true;
  for (int r = 0; r <= 3; ++r) {
    sim::Simulator sim;
    net::Topology topo(3, 4);
    net::LinkConfig links;
    links.node_up = util::kUnlimitedBandwidth;
    links.node_down = util::kUnlimitedBandwidth;
    links.rack_up = util::kUnlimitedBandwidth;
    links.rack_down = util::kUnlimitedBandwidth;
    net::Network net(sim, topo, links);
    util::Rng layout_rng(99);
    const storage::StorageLayout layout =
        storage::random_rack_constrained_layout(120, 8, 4, topo, layout_rng);
    const ec::ReedSolomonCode code(8, 4);
    const storage::DegradedReadPlanner planner(layout, topo, code);
    const storage::FailureScenario failure({0});
    mapreduce::ClusterConfig cfg;
    cfg.block_size = 1.0;
    cfg.hedge.enabled = r > 0;
    cfg.hedge.extra_sources = r;
    cfg.straggler.service_mean = mean_service;  // homogeneous exponential
    mapreduce::FetchSupervisor supervisor(sim, net, failure, cfg,
                                          util::Rng(4242));
    util::Rng plan_rng(7);

    std::vector<storage::BlockId> lost_blocks;
    for (const storage::BlockId b : layout.blocks_on_node(0)) {
      if (b.index < layout.k()) lost_blocks.push_back(b);
    }
    std::vector<double> latencies;
    latencies.reserve(reads_per_r);
    // Stagger the reads so each one's fetch set is alone in the simulator;
    // with unlimited links they cannot interfere anyway, but distinct start
    // times keep per-read latency extraction trivial.
    for (int i = 0; i < reads_per_r; ++i) {
      const storage::BlockId lost = lost_blocks[i % lost_blocks.size()];
      const double start = 100.0 * i;
      sim.schedule_at(start, [&, lost, start] {
        auto plan = planner.plan_hedged(lost, 5, failure, plan_rng, r);
        if (!plan) return;
        supervisor.start_read(planner, std::move(*plan), 5,
                              [&latencies, &sim, start](
                                  mapreduce::ReadOutcome out) {
                                if (out.ok) {
                                  latencies.push_back(sim.now() - start);
                                }
                              });
      });
    }
    sim.run();

    const int n_prime = code.k() + r;
    const double mean_mds =
        mean_service * (harmonic(n_prime) - harmonic(n_prime - code.k()));
    const double p99_mds =
        order_stat_percentile(n_prime, code.k(), mean_service, 0.99);
    const double mean_sim = util::summarize(latencies).mean;
    const double p99_sim = util::percentile(latencies, 99.0);
    const double mean_err = std::fabs(mean_sim - mean_mds) / mean_mds;
    const double p99_err = std::fabs(p99_sim - p99_mds) / p99_mds;
    const bool within = mean_err < 0.10 && p99_err < 0.10;
    all_within = all_within && within;
    validation.add_row(
        {std::to_string(r), std::to_string(n_prime),
         util::Table::num(mean_sim, 3), util::Table::num(mean_mds, 3),
         util::Table::num(100.0 * mean_err, 1) + "%",
         util::Table::num(p99_sim, 3), util::Table::num(p99_mds, 3),
         util::Table::num(100.0 * p99_err, 1) + "%",
         within ? "within" : "OUTSIDE"});
  }
  std::cout << "\nMDS-queue validation: RS(8,4), " << reads_per_r
            << " reads per r, exponential service mean " << mean_service
            << " s, instant network (k-th order statistic of n' draws); "
               "tolerance +-10%\n"
            << validation;
  if (!all_within) {
    std::cout << "ablation_hedging: VALIDATION FAILED — simulated tail "
                 "outside the MDS-queue bounds\n";
    return 1;
  }
  return 0;
}
