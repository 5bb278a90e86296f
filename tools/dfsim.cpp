// dfsim — drive MapReduce-over-erasure-coding simulations from the command
// line, without writing any C++.
//
//   dfsim --scheduler EDF --failure node --seeds 10
//   dfsim --racks 3 --nodes-per-rack 4 --code rs:12,10 --blocks 240
//         --block-mb 64 --bandwidth-mbps 250 --scheduler LF --csv out/run
//
// Every flag, with its value kind, range and default (the paper's §V-B
// simulation setup): dfsim --help

#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "dfs/core/scheduler.h"
#include "dfs/ec/registry.h"
#include "dfs/mapreduce/repair.h"
#include "dfs/net/utilization.h"
#include "dfs/mapreduce/simulation.h"
#include "dfs/mapreduce/speed_model.h"
#include "dfs/mapreduce/trace.h"
#include "dfs/runner/sweep.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"
#include "dfs/util/flags.h"
#include "dfs/util/jsonl.h"
#include "dfs/util/stats.h"
#include "dfs/util/table.h"

using namespace dfs;

int main(int argc, char** argv) {
  mapreduce::ClusterConfig cfg;
  mapreduce::JobSpec spec;
  storage::RecoveryCostModel cost_model;
  int racks = cfg.topology.num_racks();
  int nodes_per_rack = cfg.topology.num_nodes() / racks;
  int blocks = 1440, seeds = 10, jobs = runner::default_jobs(),
      repair_concurrency = 0;
  double block_mb = 128.0, rack_mbps = 1000.0, node_mbps = 0.0, skew = 0.0;
  std::string contention = "fair", code_spec = "rs:20,15",
              scheduler_name = "LF", placement = "random",
              failure_kind = "node", sources = "random",
              planner_name = "cheapest", speed_profile = "uniform";
  std::vector<double> map_time{spec.map_time.mean, spec.map_time.stddev};
  std::vector<double> reduce_time{spec.reduce_time.mean,
                                  spec.reduce_time.stddev};
  bool show_stats = false, normalize = false, show_utilization = false;
  std::optional<std::string> csv_prefix;

  util::FlagTable flags("dfsim", "MapReduce-over-erasure-coding simulator");
  flags.integer("racks", &racks, "[1,inf)", "racks in the cluster");
  flags.integer("nodes-per-rack", &nodes_per_rack, "[1,inf)", "nodes per rack");
  flags.integer("map-slots", &cfg.map_slots_per_node, "[0,inf)",
                "map slots per node");
  flags.integer("reduce-slots", &cfg.reduce_slots_per_node, "[0,inf)",
                "reduce slots per node");
  flags.number("block-mb", &block_mb, "(0,inf)", "block size, MiB");
  flags.number("bandwidth-mbps", &rack_mbps, "(0,inf)", "rack link Mbps");
  flags.number("node-bandwidth-mbps", &node_mbps, "[0,inf)",
               "node link bandwidth, Mbps (0 = unlimited)");
  flags.choice("contention", &contention, {"fair", "fifo"},
               "link sharing: max-min fair or exclusive FIFO holds");
  flags.number("heartbeat", &cfg.heartbeat_interval, "(0,inf)",
               "heartbeat interval, seconds");
  flags.integer("blocks", &blocks, "[1,inf)", "native blocks");
  flags.text("code", &code_spec, ec::code_spec_help());
  flags.choice("placement", &placement, {"random", "roundrobin", "replicated"},
               "block placement");
  flags.integer("reducers", &spec.num_reducers, "[0,inf)", "reduce tasks");
  flags.number("shuffle", &spec.shuffle_ratio, "[0,inf)",
               "shuffle size as a fraction of a block");
  flags.numbers("map-time", &map_time, {"(0,inf)", "[0,inf)"},
                "map time MEAN,SD (normal), seconds");
  flags.numbers("reduce-time", &reduce_time, {"(0,inf)", "[0,inf)"},
                "reduce time MEAN,SD (normal), seconds");
  flags.text("scheduler", &scheduler_name, "LF|BDF|EDF|DELAY|FAIR|FAIR+DF");
  flags.choice("failure", &failure_kind, {"none", "node", "2node", "rack"},
               "failure scenario");
  flags.integer("seeds", &seeds, "[1,inf)", "independent runs");
  flags.integer("jobs", &jobs, "[1,inf)", "seed-sweep threads (default: all)");
  flags.choice("sources", &sources, {"random", "samerack"},
               "degraded-read source selection");
  flags.choice("planner", &planner_name, {"cheapest", "fullshard"},
               "fullshard: whole-block sources only, no sub-shard reads");
  flags.number("cross-rack-cost", &cost_model.cross_rack_weight, "(0,inf)",
               "planner weight of a cross-rack fetch");
  flags.text("speed-profile", &speed_profile,
             "uniform | bimodal:FRAC,SLOWDOWN[,SEED] | vector:F0,F1,...");
  flags.number("skew", &skew, "[0,inf)", "Zipf exponent, rack 0 hottest");
  flags.toggle("speculate", &cfg.speculative_execution,
               "Hadoop-style speculative execution");
  flags.integer("repair", &repair_concurrency, "[0,inf)",
                "background repair concurrency (0 = off)");
  flags.toggle("utilization", &show_utilization,
               "print seed 0's rack-downlink utilization timeline");
  flags.toggle("stats", &show_stats,
               "print net_stats and recovery_stats JSON lines");
  flags.text("csv", &csv_prefix, "write per-task/job CSVs of seed 0");
  flags.toggle("normalize", &normalize, "also run failure-free; report ratios");
  if (const auto status = flags.parse(argc, argv)) return *status;

  cfg.topology = net::Topology(racks, nodes_per_rack);
  cfg.block_size = util::mebibytes(block_mb);
  cfg.links.rack_up = util::megabits_per_sec(rack_mbps);
  cfg.links.rack_down = util::megabits_per_sec(rack_mbps);
  cfg.links.node_up = node_mbps > 0 ? util::megabits_per_sec(node_mbps)
                                    : util::kUnlimitedBandwidth;
  cfg.links.node_down = cfg.links.node_up;
  if (contention == "fifo") {
    cfg.contention = net::ContentionModel::kExclusiveFifo;
  }
  spec.map_time = {map_time[0], map_time[1]};
  spec.reduce_time = {reduce_time[0], reduce_time[1]};
  const auto selection = sources == "samerack"
                             ? storage::SourceSelection::kPreferSameRack
                             : storage::SourceSelection::kRandom;
  cost_model.allow_subshard = planner_name != "fullshard";

  std::shared_ptr<ec::ErasureCode> code;
  try {
    code = ec::make_code_from_spec(code_spec);
  } catch (const std::invalid_argument& e) {
    return flags.fail(std::string("bad --code parameters: ") + e.what());
  }
  if (!code) {
    return flags.fail(std::string("bad --code spec (") +
                      ec::code_spec_help() + ")");
  }

  // Validate the scheduler spec once up front; every sweep cell builds its
  // own instance from the same name (schedulers like DELAY carry mutable
  // state, so one instance must never be shared across concurrent seeds).
  std::unique_ptr<core::Scheduler> scheduler;
  mapreduce::SpeedModel speed;
  try {
    scheduler = core::make_scheduler(scheduler_name);
    speed = mapreduce::SpeedModel::parse(speed_profile);
  } catch (const std::exception& e) {
    return flags.fail(e.what());
  }
  if (!speed.uniform()) {
    cfg.node_time_scale = speed.materialize(cfg.topology.num_nodes());
  }
  if (skew > 0.0 && placement != "random") {
    return flags.fail("--skew needs --placement random");
  }

  util::Table table({"seed", "runtime(s)", "map_phase(s)", "degraded",
                     "remote", "mean_drt(s)", "normalized"});
  // Each seed is one sweep cell. A cell owns its entire stack (Rng, layout,
  // scheduler, simulation) and buffers its stdout/stderr text; the buffers
  // are flushed in seed order below, so the streams are byte-identical for
  // any --jobs value.
  struct SeedOutcome {
    std::string log;   // per-seed stdout lines
    std::string warn;  // per-seed stderr lines
    std::vector<std::string> row;
    double runtime = 0.0;
    double norm = 0.0;
  };
  runner::ThreadPool pool(jobs);
  std::vector<SeedOutcome> outcomes;
  try {
    outcomes = runner::sweep(
        pool, static_cast<std::size_t>(seeds), [&](std::size_t cell) {
          const int s = static_cast<int>(cell);
          SeedOutcome out;
          std::ostringstream log, warn;
          const auto sched = core::make_scheduler(scheduler_name);
          util::Rng rng(static_cast<std::uint64_t>(s) * 100003 + 7);
          mapreduce::JobInput job;
          job.spec = spec;
          job.code = code;
          try {
            if (placement == "roundrobin") {
              job.layout = std::make_shared<storage::StorageLayout>(
                  storage::round_robin_layout(blocks, code->n(), code->k(),
                                              cfg.topology.num_nodes()));
            } else if (placement == "replicated") {
              job.layout = std::make_shared<storage::StorageLayout>(
                  storage::replicated_layout(blocks, code->n(), cfg.topology,
                                             rng));
            } else if (skew > 0.0) {
              job.layout = std::make_shared<storage::StorageLayout>(
                  storage::zipf_rack_skewed_layout(blocks, code->n(),
                                                   code->k(), cfg.topology,
                                                   rng, skew));
            } else {
              job.layout = std::make_shared<storage::StorageLayout>(
                  storage::random_rack_constrained_layout(
                      blocks, code->n(), code->k(), cfg.topology, rng));
            }
          } catch (const std::exception& e) {
            throw std::runtime_error(std::string("layout: ") + e.what());
          }

          storage::FailureScenario failure;
          if (failure_kind == "node") {
            failure = storage::single_node_failure(cfg.topology, rng);
          } else if (failure_kind == "2node") {
            failure = storage::double_node_failure(cfg.topology, rng);
          } else if (failure_kind == "rack") {
            failure = storage::rack_failure(cfg.topology, rng);
          }

          const std::uint64_t seed = static_cast<std::uint64_t>(s) + 1;
          mapreduce::MapReduceSimulation simulation(
              cfg, {job}, failure, *sched, seed, selection, cost_model);
          bool finished = false;
          std::unique_ptr<net::UtilizationSampler> sampler;
          if (show_utilization && s == 0) {
            mapreduce::TaskHooks hooks;
            hooks.on_job_finish =
                [&finished](const mapreduce::JobMetrics&) { finished = true; };
            simulation.set_hooks(std::move(hooks));
            sampler = std::make_unique<net::UtilizationSampler>(
                simulation.simulator(), simulation.network(),
                /*interval=*/10.0, [&finished] { return !finished; });
            sampler->start();
          }
          std::unique_ptr<mapreduce::RepairProcess> repair;
          if (repair_concurrency > 0) {
            mapreduce::RepairProcess::Options ropts;
            ropts.concurrency = repair_concurrency;
            ropts.block_size = cfg.block_size;
            ropts.selection = selection;
            repair = std::make_unique<mapreduce::RepairProcess>(
                simulation.simulator(), simulation.network(), *job.layout,
                *job.code, failure, ropts, util::Rng(seed * 31 + 3));
            repair->start();
          }
          const auto result = simulation.run();
          if (repair) {
            log << "seed " << s << ": repair rebuilt "
                << repair->stats().blocks_repaired << " blocks by t="
                << util::Table::num(repair->stats().finish_time, 1) << "s\n";
          }
          if (sampler) {
            log << "rack-downlink utilization (seed 0, 10 s buckets):\n";
            for (const auto& sample : sampler->samples()) {
              const int bars = static_cast<int>(sample.utilization * 40.0 + 0.5);
              log << "  " << util::Table::num(sample.time, 0) << "s\t"
                  << std::string(static_cast<std::size_t>(bars), '#') << ' '
                  << util::Table::pct(sample.utilization * 100.0, 0) << "\n";
            }
          }
          const auto& m = result.jobs.front();
          if (normalize) {
            const auto base = mapreduce::simulate(
                cfg, {job}, storage::no_failure(), *sched, seed, selection,
                cost_model);
            out.norm = m.runtime() / base.jobs.front().runtime();
          }
          if (result.speculative_attempts() > 0) {
            log << "seed " << s << ": " << result.speculative_attempts()
                << " speculative attempts (" << result.speculative_losses()
                << " wasted)\n";
          }
          // --stats: two JSON lines per seed, emitted in seed order via the
          // buffered cell log — the network engine's counters, then the
          // degraded fetch volume in block units.
          if (show_stats) {
            util::JsonlWriter w(log);
            w.begin("net_stats").field("seed", s);
            net::append_net_stats(w, simulation.network().stats());
            w.end();
            w.begin("recovery_stats")
                .field("seed", s)
                .field("degraded_tasks", m.degraded_tasks)
                .field("fetch_blocks", result.degraded_fetch_blocks())
                .field("mean_fetch_blocks",
                       result.mean_degraded_fetch_blocks());
            w.end();
          }
          out.runtime = m.runtime();
          out.row = {std::to_string(s), util::Table::num(m.runtime(), 1),
                     util::Table::num(m.map_phase_end - m.first_map_launch, 1),
                     std::to_string(m.degraded_tasks),
                     std::to_string(m.remote_tasks),
                     util::Table::num(result.mean_degraded_read_time(), 1),
                     normalize ? util::Table::num(out.norm, 3) : ""};
          if (result.data_loss) {
            warn << "warning: seed " << s
                 << " had unrecoverable blocks (data loss)\n";
          }
          if (s == 0 && csv_prefix) {
            mapreduce::write_csv_files(*csv_prefix, result);
          }
          out.log = log.str();
          out.warn = warn.str();
          return out;
        });
  } catch (const std::exception& e) {
    return flags.fail(e.what());
  }
  std::vector<double> runtimes, normalized;
  for (auto& out : outcomes) {
    std::cout << out.log;
    std::cerr << out.warn;
    runtimes.push_back(out.runtime);
    if (normalize) normalized.push_back(out.norm);
    table.add_row(std::move(out.row));
  }
  std::cout << "dfsim: scheduler=" << scheduler->name() << " code="
            << code->name() << " blocks=" << blocks << " failure="
            << failure_kind << '\n'
            << table;
  const auto box = util::boxplot(runtimes);
  std::cout << "runtime: " << util::to_string(box) << '\n';
  if (normalize) {
    std::cout << "normalized: " << util::to_string(util::boxplot(normalized))
              << '\n';
  }
  if (csv_prefix) {
    std::cout << "CSV trace of seed 0 written to " << *csv_prefix
              << "_{map_tasks,reduce_tasks,jobs}.csv\n";
  }
  return 0;
}
