// dfscluster — online long-horizon cluster lifecycle simulation: an
// open-loop job stream runs while nodes fail and get repaired mid-run, and
// steady-state latency percentiles are reported.
//
//   dfscluster --hours 2 --scheduler df --seed 1
//   dfscluster --hours 6 --arrivals pareto --interarrival 30 --mttf-hours 3
//              --scheduler lf --jsonl out/run.jsonl --csv out/timeline.csv
//
// Every flag, with its value kind, range and default (the paper's §V-B
// cluster under moderate sustained load, about half the map slots busy):
// dfscluster --help

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "dfs/cluster/simulation.h"
#include "dfs/core/scheduler.h"
#include "dfs/mapreduce/trace.h"
#include "dfs/runner/sweep.h"
#include "dfs/util/flags.h"
#include "dfs/util/table.h"

using namespace dfs;

namespace {

/// Friendly lowercase aliases on top of core::make_scheduler's names.
std::string scheduler_name(const std::string& flag) {
  if (flag == "lf") return "LF";
  if (flag == "df") return "BDF";  // the paper's basic degraded-first
  if (flag == "edf") return "EDF";
  return flag;
}

}  // namespace

int main(int argc, char** argv) {
  cluster::ClusterOptions opts;
  double hours = opts.horizon / 3600.0, rack_gbps = 1.0;
  int slaves = opts.config.topology.num_nodes(), nodes_per_rack = 10,
      tenants = 0, hedge_extras = 0, seed = 1, seeds = 1,
      jobs = runner::default_jobs();
  std::vector<double> tenant_shares, tenant_scales;
  std::string scheduler_flag = "df", arrivals = "poisson",
              speed_profile = "uniform";
  std::optional<std::string> jsonl_path, csv_path, attempts_csv_path;
  cluster::ArrivalOptions& arr = opts.arrivals;
  cluster::LifecycleOptions& life = opts.lifecycle;
  mapreduce::FaultConfig& fault = opts.config.fault;
  mapreduce::HedgeConfig& hedge = opts.config.hedge;
  mapreduce::FetchPolicy& fetch = opts.config.fetch;
  mapreduce::StragglerConfig& straggler = opts.config.straggler;

  util::FlagTable flags("dfscluster", "online cluster lifecycle simulator");
  flags.number("hours", &hours, "(0,inf)", "admission/failure window, hours");
  flags.number("warmup", &opts.warmup, "[0,inf)", "warm-up cutoff, seconds");
  flags.text("scheduler", &scheduler_flag, "lf | df | edf | any dfsim name");
  flags.integer("seed", &seed, "[0,inf)", "base RNG seed");
  flags.integer("seeds", &seeds, "[1,inf)", "independent runs from --seed");
  flags.integer("jobs", &jobs, "[1,inf)", "seed-sweep threads (default: all)");
  flags.integer("slaves", &slaves, "[1,inf)", "total slave nodes");
  flags.integer("nodes-per-rack", &nodes_per_rack, "[1,inf)",
                "rack width; racks = slaves / nodes-per-rack");
  flags.number("rack-gbps", &rack_gbps, "(0,inf)", "rack link bandwidth, Gbps");
  flags.text("arrivals", &arrivals, "poisson | pareto | diurnal");
  flags.number("interarrival", &arr.mean_interarrival, "(0,inf)",
               "mean gap between jobs, seconds");
  flags.number("pareto-alpha", &arr.pareto_alpha, "(1,inf)",
               "Pareto shape (smaller = burstier)");
  flags.number("diurnal-amplitude", &arr.diurnal_amplitude, "[0,1)",
               "diurnal rate swing");
  flags.number("diurnal-period", &arr.diurnal_period, "(0,inf)",
               "diurnal modulation period, seconds");
  flags.integer("blocks", &arr.job.num_blocks, "[1,inf)", "map tasks per job");
  flags.integer("reducers", &arr.job.num_reducers, "[0,inf)",
                "reduce tasks per job");
  flags.number("mttf-hours", &life.node_mttf_hours, "(0,inf)",
               "per-node mean time to failure, hours");
  flags.number("repair-delay", &life.mean_repair_delay, "[0,inf)",
               "mean failure-to-repair-start delay, seconds");
  flags.number("rack-failures", &life.rack_failure_fraction, "[0,1]",
               "fraction of failures taking a rack");
  flags.integer("repair", &life.repair_concurrency, "[1,inf)",
                "block repairs in flight per failure");
  flags.number("sample-interval", &opts.sample_interval, "(0,inf)",
               "timeline sampling period, seconds");
  flags.text("speed-profile", &speed_profile,
             "uniform | bimodal:FRAC,SLOWDOWN[,SEED] | vector:F0,F1,...");
  flags.integer("tenants", &tenants, "[0,inf)", "tenant classes (0 = none)");
  flags.numbers("tenant-shares", &tenant_shares, {"(0,inf)"},
                "arrival share per tenant (default: equal)");
  flags.numbers("tenant-scales", &tenant_scales, {"(0,inf)"},
                "job-size multiplier per tenant (default: 1)");
  flags.text("admission", &opts.admission, "fifo | fair | fair:w0,w1,...");
  flags.number("skew", &arr.job.skew, "[0,inf)", "Zipf skew, rack 0 hottest");
  flags.text("jsonl", &jsonl_path, "write the full run as JSON lines");
  flags.text("csv", &csv_path, "write the sampled timeline as CSV");
  // Fault layer: inert unless --faults is given.
  flags.toggle("faults", &fault.compute_failures, "failures kill TaskTrackers");
  flags.number("expiry", &fault.expiry_multiplier, "(0,inf)",
               "heartbeat-expiry multiplier");
  flags.number("attempt-failure-prob", &fault.attempt_failure_prob, "[0,1]",
               "per-attempt transient failure prob.");
  flags.integer("max-attempts", &fault.max_attempts, "[1,inf)",
                "attempts per task before the job aborts");
  flags.number("retry-backoff", &fault.retry_backoff, "[0,inf)",
               "base retry backoff, seconds");
  flags.integer("blacklist-threshold", &fault.blacklist_threshold, "[0,inf)",
                "failures before a slave is shunned");
  flags.number("blacklist-duration", &fault.blacklist_duration, "[0,inf)",
               "blacklist residence time, seconds");
  flags.text("attempts-csv", &attempts_csv_path, "write attempt trace CSV");
  // Hedged degraded reads and storage fault injection.
  flags.integer("hedge", &hedge_extras, "[0,inf)", "hedge fetches per read");
  flags.integer("hedge-quorum", &hedge.min_quorum, "[0,inf)",
                "completed fetches required for a quorum (0 = coverage)");
  flags.number("fetch-timeout", &fetch.timeout, "[0,inf)",
               "per-fetch timeout, seconds (0 = none)");
  flags.integer("fetch-retries", &fetch.max_retries, "[0,inf)",
                "retries per source before replanning");
  flags.number("fetch-backoff", &fetch.retry_backoff, "[0,inf)",
               "base retry backoff, seconds (doubles per retry)");
  flags.number("straggler-fraction", &straggler.fraction, "[0,1]",
               "fraction of nodes serving reads slowly");
  flags.number("straggler-slowdown", &straggler.slowdown, "[1,inf)",
               "service-jitter multiplier on straggler nodes");
  flags.number("straggler-jitter", &straggler.service_mean, "[0,inf)",
               "mean per-fetch service delay, seconds");
  flags.number("straggler-alpha", &straggler.pareto_alpha, "0|(1,inf)",
               "jitter tail (0 = exponential)");
  // < 1 strictly: a certain failure would retry forever.
  flags.number("straggler-fail-prob", &straggler.fail_prob, "[0,1)",
               "transient fetch-failure probability");
  if (const auto status = flags.parse(argc, argv)) return *status;

  // Cluster size. The default keeps the paper's 4x10 §V-B topology
  // byte-identical; --slaves rebuilds the topology at any scale (the 10k
  // tier is the benchmarked ceiling, not a hard limit).
  if (slaves % nodes_per_rack != 0) {
    return flags.fail("--slaves must be a multiple of --nodes-per-rack");
  }
  opts.horizon = hours * 3600.0;
  opts.config.topology =
      net::Topology(slaves / nodes_per_rack, nodes_per_rack);
  opts.config.links.rack_up = util::gigabits_per_sec(rack_gbps);
  opts.config.links.rack_down = util::gigabits_per_sec(rack_gbps);
  hedge.enabled = hedge_extras > 0;
  hedge.extra_sources = hedge_extras;

  // Tenant classes: --tenants N makes N equal classes; the share/scale
  // lists override per class and must carry exactly one value per tenant.
  if ((!tenant_shares.empty() || !tenant_scales.empty()) && tenants < 1) {
    return flags.fail("--tenant-shares / --tenant-scales require --tenants N");
  }
  const auto per_tenant = static_cast<std::size_t>(tenants);
  if (!tenant_shares.empty() && tenant_shares.size() != per_tenant) {
    return flags.fail("--tenant-shares needs exactly --tenants values");
  }
  if (!tenant_scales.empty() && tenant_scales.size() != per_tenant) {
    return flags.fail("--tenant-scales needs exactly --tenants values");
  }
  arr.tenants.assign(per_tenant, cluster::TenantClass{});
  for (std::size_t c = 0; c < tenant_shares.size(); ++c) {
    arr.tenants[c].arrival_share = tenant_shares[c];
  }
  for (std::size_t c = 0; c < tenant_scales.size(); ++c) {
    arr.tenants[c].job_scale = tenant_scales[c];
  }

  std::unique_ptr<core::Scheduler> scheduler;
  try {
    arr.model = cluster::parse_arrival_model(arrivals);
    // Negative fractions, slowdowns below 1, bad weights etc. are rejected
    // here, before any sweep cell starts.
    opts.speed = mapreduce::SpeedModel::parse(speed_profile);
    if (opts.admission != "fifo") {
      core::make_admission_policy(opts.admission);  // validate the spec
    }
    scheduler = core::make_scheduler(scheduler_name(scheduler_flag));
  } catch (const std::exception& e) {
    return flags.fail(e.what());
  }

  // Each seed is one sweep cell; every cell owns its scheduler and
  // simulation and renders its report into a string, so the per-seed blocks
  // (and the JSONL records appended below) come out in seed order whatever
  // --jobs is — byte-identical output for any thread count.
  struct SeedOutcome {
    std::string report;
    std::string warn;
    cluster::ClusterResult result;
  };
  runner::ThreadPool pool(jobs);
  std::vector<SeedOutcome> outcomes;
  try {
    outcomes = runner::sweep(
        pool, static_cast<std::size_t>(seeds), [&](std::size_t cell) {
          const std::uint64_t cell_seed =
              static_cast<std::uint64_t>(seed) + cell;
          const auto sched = core::make_scheduler(
              scheduler_name(scheduler_flag));
          cluster::ClusterSimulation simulation(opts, *sched, cell_seed);
          SeedOutcome out;
          out.result = simulation.run();
          const auto& s = out.result.summary;
          std::ostringstream rep;
          rep << "dfscluster: scheduler=" << sched->name()
              << " arrivals=" << to_string(opts.arrivals.model)
              << " horizon=" << util::Table::num(opts.horizon / 3600.0, 2)
              << "h warmup=" << util::Table::num(opts.warmup, 0)
              << "s seed=" << cell_seed << '\n';
          rep << "config: admission=" << opts.admission
              << " speed=" << opts.speed.describe()
              << " tenants=" << opts.arrivals.tenants.size()
              << " skew=" << util::Table::num(opts.arrivals.job.skew, 2)
              << '\n';
          rep << "jobs: " << s.jobs_submitted << " submitted, "
              << s.jobs_completed << " completed, " << s.jobs_measured
              << " in the measurement window\n";
          util::Table table({"metric", "value"});
          table.add_row({"latency samples",
                         std::to_string(s.latency_samples)});
          table.add_row({"latency p50 (s)", util::Table::num(s.latency_p50, 1)});
          table.add_row({"latency p95 (s)", util::Table::num(s.latency_p95, 1)});
          table.add_row({"latency p99 (s)", util::Table::num(s.latency_p99, 1)});
          table.add_row({"latency mean (s)",
                         util::Table::num(s.latency_mean, 1)});
          table.add_row({"job runtime mean (s)",
                         util::Table::num(s.mean_job_runtime, 1)});
          table.add_row({"degraded task fraction",
                         util::Table::pct(s.degraded_task_fraction * 100.0, 2)});
          table.add_row({"degraded fetch (blocks/read)",
                         util::Table::num(s.mean_degraded_fetch_blocks, 2)});
          table.add_row({"degraded read p50 (s)",
                         util::Table::num(s.degraded_read_p50, 2)});
          table.add_row({"degraded read p99 (s)",
                         util::Table::num(s.degraded_read_p99, 2)});
          table.add_row({"degraded read p999 (s)",
                         util::Table::num(s.degraded_read_p999, 2)});
          table.add_row({"degraded read samples",
                         std::to_string(s.degraded_read_samples)});
          table.add_row({"fetch p99 (s)", util::Table::num(s.fetch_p99, 2)});
          table.add_row({"fetch samples", std::to_string(s.fetch_samples)});
          table.add_row({"failures injected",
                         std::to_string(s.failures_injected) + " (" +
                             std::to_string(s.rack_failures) + " rack)"});
          table.add_row({"blocks repaired", std::to_string(s.blocks_repaired)});
          table.add_row({"max repair backlog",
                         std::to_string(s.max_repair_backlog)});
          table.add_row({"rack downlink utilization",
                         util::Table::pct(s.mean_rack_down_utilization * 100.0,
                                          1)});
          rep << table;
          if (!s.tenants.empty()) {
            util::Table tt({"tenant", "measured", "p50 (s)", "p95 (s)",
                            "p99 (s)", "mean (s)"});
            for (const auto& t : s.tenants) {
              tt.add_row({std::to_string(t.tenant),
                          std::to_string(t.jobs_measured),
                          util::Table::num(t.latency_p50, 1),
                          util::Table::num(t.latency_p95, 1),
                          util::Table::num(t.latency_p99, 1),
                          util::Table::num(t.latency_mean, 1)});
            }
            rep << "per-tenant latency:\n" << tt;
          }
          const auto& run = out.result.run;
          rep << "faults: "
              << run.count_map_attempts(mapreduce::AttemptOutcome::kKilled) +
                     run.count_reduce_attempts(
                         mapreduce::AttemptOutcome::kKilled)
              << " attempts killed, "
              << run.count_map_attempts(mapreduce::AttemptOutcome::kFailed) +
                     run.count_reduce_attempts(
                         mapreduce::AttemptOutcome::kFailed)
              << " failed, " << run.blacklist_events << " blacklist events, "
              << run.jobs_failed() << " jobs aborted\n";
          rep << "faults: " << run.detections.size()
              << " slave deaths detected, mean detection latency "
              << util::Table::num(run.mean_detection_latency(), 1) << " s\n";
          const auto& h = s.hedge;
          rep << "hedging: " << h.reads_started << " reads supervised, "
              << h.hedges_launched << " hedges launched, "
              << h.losers_cancelled << " losers cancelled, "
              << h.fetch_timeouts << " timeouts, " << h.transient_failures
              << " transient failures, " << h.fetch_retries << " retries, "
              << h.fallback_replans << " fallback replans, "
              << h.last_resort_reads << " last-resort reads\n";
          std::ostringstream warn;
          if (s.blocks_unrecoverable > 0) {
            warn << "warning: " << s.blocks_unrecoverable
                 << " blocks were unrecoverable (data loss)";
            if (seeds > 1) warn << " (seed " << cell_seed << ")";
            warn << '\n';
          }
          if (s.latency_samples > 0 && s.latency_samples < 10) {
            warn << "warning: latency p99 rests on only " << s.latency_samples
                 << " samples";
            if (seeds > 1) warn << " (seed " << cell_seed << ")";
            warn << '\n';
          }
          if (s.degraded_read_samples > 0 && s.degraded_read_samples < 10) {
            warn << "warning: degraded-read p99 rests on only "
                 << s.degraded_read_samples << " samples";
            if (seeds > 1) warn << " (seed " << cell_seed << ")";
            warn << '\n';
          }
          out.warn = warn.str();
          out.report = rep.str();
          return out;
        });
  } catch (const std::exception& e) {
    return flags.fail(e.what());
  }
  for (const auto& out : outcomes) {
    std::cout << out.report;
    std::cerr << out.warn;
  }

  if (jsonl_path) {
    std::ofstream out(*jsonl_path);
    if (!out) return flags.fail("cannot write " + *jsonl_path);
    // One record stream, seeds concatenated in seed order.
    for (const auto& outcome : outcomes) {
      cluster::write_cluster_jsonl(out, outcome.result);
    }
    std::cout << "JSONL run record written to " << *jsonl_path << '\n';
  }
  if (csv_path) {
    std::ofstream out(*csv_path);
    if (!out) return flags.fail("cannot write " + *csv_path);
    cluster::write_timeline_csv(out, outcomes.front().result);
    std::cout << "timeline CSV written to " << *csv_path;
    if (seeds > 1) std::cout << " (first seed only)";
    std::cout << '\n';
  }
  if (attempts_csv_path) {
    std::ofstream out(*attempts_csv_path);
    if (!out) return flags.fail("cannot write " + *attempts_csv_path);
    mapreduce::write_attempt_csv(out, outcomes.front().result.run);
    std::cout << "attempt trace CSV written to " << *attempts_csv_path;
    if (seeds > 1) std::cout << " (first seed only)";
    std::cout << '\n';
  }
  return 0;
}
