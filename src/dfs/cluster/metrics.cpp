#include "dfs/cluster/metrics.h"

#include <algorithm>
#include <ostream>
#include <set>

#include "dfs/util/jsonl.h"
#include "dfs/util/streaming_quantile.h"

namespace dfs::cluster {

ClusterSampler::ClusterSampler(sim::Simulator& simulator, net::Network& network,
                               const mapreduce::Master& master,
                               const LifecycleDriver& lifecycle,
                               util::Seconds interval,
                               std::function<bool()> keep_going)
    : sim_(simulator),
      net_(network),
      master_(master),
      lifecycle_(lifecycle),
      interval_(interval),
      keep_going_(std::move(keep_going)) {
  prev_busy_.assign(static_cast<std::size_t>(net_.topology().num_racks()),
                    0.0);
}

void ClusterSampler::start() {
  prev_time_ = sim_.now();
  sim_.schedule_periodic(interval_, interval_, [this] {
    sample();
    return keep_going_();
  });
}

void ClusterSampler::sample() {
  TimelineSample s;
  s.time = sim_.now();
  s.jobs_in_system = static_cast<int>(master_.jobs_submitted()) -
                     static_cast<int>(master_.jobs_completed());
  s.failed_nodes = lifecycle_.failed_node_count();
  s.repair_backlog = lifecycle_.repair_backlog();
  const double elapsed = sim_.now() - prev_time_;
  double busy_sum = 0.0;
  for (net::RackId r = 0; r < net_.topology().num_racks(); ++r) {
    const double busy = net_.rack_down_busy_time(r);
    busy_sum += busy - prev_busy_[static_cast<std::size_t>(r)];
    prev_busy_[static_cast<std::size_t>(r)] = busy;
  }
  s.rack_down_utilization =
      elapsed > 0.0
          ? busy_sum / (elapsed * net_.topology().num_racks())
          : 0.0;
  prev_time_ = sim_.now();
  samples_.push_back(s);
}

SteadyStateSummary summarize_steady_state(
    const mapreduce::RunResult& run, const std::vector<FailureEvent>& failures,
    const std::vector<TimelineSample>& timeline, util::Seconds warmup,
    util::Seconds horizon) {
  SteadyStateSummary s;
  s.warmup = warmup;
  s.horizon = horizon;
  s.jobs_submitted = static_cast<int>(run.jobs.size());
  s.data_loss = run.data_loss;

  // Streaming accumulators: bounded memory at the 10k-slave tier (where
  // task records run to the millions), byte-identical exact percentiles at
  // paper scale (the small-sample regime never leaves the exact buffer).
  util::StreamingQuantile latencies({50.0, 95.0, 99.0});
  util::StreamingQuantile runtimes({});
  long degraded = 0, total_tasks = 0;
  for (const auto& j : run.jobs) {
    if (j.failed) {
      ++s.jobs_failed;
      continue;  // an abort is not a completion and has no useful latency
    }
    if (j.finish_time >= 0.0) ++s.jobs_completed;
    if (j.submit_time < warmup || j.submit_time > horizon ||
        j.finish_time < 0.0) {
      continue;
    }
    ++s.jobs_measured;
    latencies.add(j.latency());
    runtimes.add(j.runtime());
    degraded += j.degraded_tasks;
    total_tasks += j.local_tasks + j.remote_tasks + j.degraded_tasks;
  }
  s.latency_samples = static_cast<int>(latencies.count());
  if (!latencies.empty()) {
    s.latency_p50 = latencies.quantile(50.0);
    s.latency_p95 = latencies.quantile(95.0);
    s.latency_p99 = latencies.quantile(99.0);
    s.latency_mean = latencies.mean();
    s.mean_job_runtime = runtimes.mean();
  }
  if (total_tasks > 0) {
    s.degraded_task_fraction =
        static_cast<double>(degraded) / static_cast<double>(total_tasks);
  }

  // Per-tenant latency breakdown — materialized only when some job carries
  // a non-zero class, so single-tenant summaries stay structurally
  // identical to older versions (the breakdown would just repeat the
  // overall percentiles).
  int max_tenant = 0;
  for (const auto& j : run.jobs) max_tenant = std::max(max_tenant, j.tenant);
  if (max_tenant > 0) {
    std::vector<util::StreamingQuantile> per_tenant;
    per_tenant.reserve(static_cast<std::size_t>(max_tenant) + 1);
    std::vector<int> per_tenant_measured(
        static_cast<std::size_t>(max_tenant) + 1, 0);
    for (int c = 0; c <= max_tenant; ++c) {
      per_tenant.emplace_back(std::vector<double>{50.0, 95.0, 99.0});
    }
    for (const auto& j : run.jobs) {
      if (j.failed || j.submit_time < warmup || j.submit_time > horizon ||
          j.finish_time < 0.0) {
        continue;
      }
      const auto c = static_cast<std::size_t>(j.tenant);
      ++per_tenant_measured[c];
      per_tenant[c].add(j.latency());
    }
    s.tenants.reserve(per_tenant.size());
    for (int c = 0; c <= max_tenant; ++c) {
      const auto& q = per_tenant[static_cast<std::size_t>(c)];
      SteadyStateSummary::TenantSummary t;
      t.tenant = c;
      t.jobs_measured = per_tenant_measured[static_cast<std::size_t>(c)];
      t.latency_samples = static_cast<int>(q.count());
      if (!q.empty()) {
        t.latency_p50 = q.quantile(50.0);
        t.latency_p95 = q.quantile(95.0);
        t.latency_p99 = q.quantile(99.0);
        t.latency_mean = q.mean();
      }
      s.tenants.push_back(t);
    }
  }

  // Recovery volume of the same measurement window: block equivalents
  // actually fetched per recoverable degraded read.
  std::set<mapreduce::JobId> measured;
  for (const auto& j : run.jobs) {
    if (!j.failed && j.finish_time >= 0.0 && j.submit_time >= warmup &&
        j.submit_time <= horizon) {
      measured.insert(j.id);
    }
  }
  double fetched = 0.0;
  int degraded_reads = 0;
  util::StreamingQuantile read_times({50.0, 99.0, 99.9});
  for (const auto& t : run.map_tasks) {
    if (t.kind != mapreduce::MapTaskKind::kDegraded || t.unrecoverable ||
        measured.count(t.job) == 0) {
      continue;
    }
    for (const auto& src : t.sources) fetched += src.fraction;
    ++degraded_reads;
    if (t.fetch_done_time >= 0.0) read_times.add(t.degraded_read_time());
  }
  if (degraded_reads > 0) {
    s.mean_degraded_fetch_blocks = fetched / degraded_reads;
  }

  // Degraded-read tail latency, per task and then per fetch.
  s.degraded_read_samples = static_cast<int>(read_times.count());
  if (!read_times.empty()) {
    s.degraded_read_p50 = read_times.quantile(50.0);
    s.degraded_read_p99 = read_times.quantile(99.0);
    s.degraded_read_p999 = read_times.quantile(99.9);
  }
  util::StreamingQuantile fetch_times({50.0, 99.0, 99.9});
  for (const auto& f : run.degraded_fetches) {
    if (f.outcome != mapreduce::FetchOutcome::kCompleted) continue;
    if (f.start < warmup || f.start > horizon) continue;
    fetch_times.add(f.latency());
  }
  s.fetch_samples = static_cast<int>(fetch_times.count());
  if (!fetch_times.empty()) {
    s.fetch_p50 = fetch_times.quantile(50.0);
    s.fetch_p99 = fetch_times.quantile(99.0);
    s.fetch_p999 = fetch_times.quantile(99.9);
  }
  s.hedge = run.hedge;

  s.failures_injected = static_cast<int>(failures.size());
  for (const auto& f : failures) {
    if (f.rack) ++s.rack_failures;
    s.blocks_repaired += f.blocks_repaired;
    s.blocks_unrecoverable += f.blocks_unrecoverable;
  }
  if (s.blocks_unrecoverable > 0) s.data_loss = true;

  double util_sum = 0.0;
  int util_count = 0;
  for (const auto& t : timeline) {
    s.max_repair_backlog = std::max(s.max_repair_backlog, t.repair_backlog);
    if (t.time >= warmup && t.time <= horizon) {
      util_sum += t.rack_down_utilization;
      ++util_count;
    }
  }
  if (util_count > 0) s.mean_rack_down_utilization = util_sum / util_count;
  return s;
}

void write_cluster_jsonl(std::ostream& os, const ClusterResult& result) {
  const SteadyStateSummary& s = result.summary;
  util::JsonlWriter w(os);
  w.begin("summary")
      .field("warmup", s.warmup)
      .field("horizon", s.horizon)
      .field("jobs_submitted", s.jobs_submitted)
      .field("jobs_completed", s.jobs_completed)
      .field("jobs_failed", s.jobs_failed)
      .field("jobs_measured", s.jobs_measured)
      .field("latency_samples", s.latency_samples)
      .field("latency_p50", s.latency_p50)
      .field("latency_p95", s.latency_p95)
      .field("latency_p99", s.latency_p99)
      .field("latency_mean", s.latency_mean)
      .field("mean_job_runtime", s.mean_job_runtime)
      .field("degraded_task_fraction", s.degraded_task_fraction)
      .field("mean_degraded_fetch_blocks", s.mean_degraded_fetch_blocks)
      .field("failures_injected", s.failures_injected)
      .field("rack_failures", s.rack_failures)
      .field("blocks_repaired", s.blocks_repaired)
      .field("blocks_unrecoverable", s.blocks_unrecoverable)
      .field("max_repair_backlog", s.max_repair_backlog)
      .field("mean_rack_down_utilization", s.mean_rack_down_utilization)
      .field("data_loss", s.data_loss ? 1 : 0)
      .end();
  w.begin("net_stats");
  net::append_net_stats(w, result.net_stats);
  w.end();
  w.begin("hedging")
      .field("degraded_read_p50", s.degraded_read_p50)
      .field("degraded_read_p99", s.degraded_read_p99)
      .field("degraded_read_p999", s.degraded_read_p999)
      .field("degraded_read_samples", s.degraded_read_samples)
      .field("fetch_p50", s.fetch_p50)
      .field("fetch_p99", s.fetch_p99)
      .field("fetch_p999", s.fetch_p999)
      .field("fetch_samples", s.fetch_samples)
      .field("reads_started", static_cast<long>(s.hedge.reads_started))
      .field("reads_completed", static_cast<long>(s.hedge.reads_completed))
      .field("reads_failed", static_cast<long>(s.hedge.reads_failed))
      .field("fetches_launched", static_cast<long>(s.hedge.fetches_launched))
      .field("hedges_launched", static_cast<long>(s.hedge.hedges_launched))
      .field("losers_cancelled", static_cast<long>(s.hedge.losers_cancelled))
      .field("fetch_timeouts", static_cast<long>(s.hedge.fetch_timeouts))
      .field("transient_failures",
             static_cast<long>(s.hedge.transient_failures))
      .field("fetch_retries", static_cast<long>(s.hedge.fetch_retries))
      .field("fallback_replans", static_cast<long>(s.hedge.fallback_replans))
      .field("last_resort_reads", static_cast<long>(s.hedge.last_resort_reads))
      .end();
  for (const auto& t : s.tenants) {
    w.begin("tenant")
        .field("tenant", t.tenant)
        .field("jobs_measured", t.jobs_measured)
        .field("latency_samples", t.latency_samples)
        .field("latency_p50", t.latency_p50)
        .field("latency_p95", t.latency_p95)
        .field("latency_p99", t.latency_p99)
        .field("latency_mean", t.latency_mean)
        .end();
  }
  for (const auto& f : result.failures) {
    w.begin("failure")
        .field("fail_time", f.fail_time)
        .field("repair_start", f.repair_start)
        .field("restore_time", f.restore_time)
        .field("rack", f.rack ? 1 : 0)
        .array("nodes", f.nodes)
        .field("blocks_repaired", f.blocks_repaired)
        .field("blocks_unrecoverable", f.blocks_unrecoverable)
        .end();
  }
  for (const auto& t : result.timeline) {
    w.begin("sample")
        .field("time", t.time)
        .field("jobs_in_system", t.jobs_in_system)
        .field("failed_nodes", t.failed_nodes)
        .field("repair_backlog", t.repair_backlog)
        .field("rack_down_utilization", t.rack_down_utilization)
        .end();
  }
  for (const auto& j : result.run.jobs) {
    if (j.failed || j.submit_time < s.warmup || j.submit_time > s.horizon ||
        j.finish_time < 0.0) {
      continue;
    }
    w.begin("job").field("id", j.id);
    // Class tags on the job lines only exist for multi-tenant runs, like
    // the "tenant" records.
    if (!s.tenants.empty()) w.field("tenant", j.tenant);
    w.field("submit", j.submit_time)
        .field("finish", j.finish_time)
        .field("latency", j.latency())
        .field("runtime", j.runtime())
        .field("local", j.local_tasks)
        .field("remote", j.remote_tasks)
        .field("degraded", j.degraded_tasks)
        .end();
  }
}

void write_timeline_csv(std::ostream& os, const ClusterResult& result) {
  os << "time,jobs_in_system,failed_nodes,repair_backlog,"
        "rack_down_utilization\n";
  for (const auto& t : result.timeline) {
    os << t.time << ',' << t.jobs_in_system << ',' << t.failed_nodes << ','
       << t.repair_backlog << ',' << t.rack_down_utilization << '\n';
  }
}

}  // namespace dfs::cluster
