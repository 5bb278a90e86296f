#include "dfs/mapreduce/fetch_supervisor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace dfs::mapreduce {

namespace {

/// A read whose exclusions (from transient exhaustion) make it unplannable
/// gets this many exclusion resets before it is declared unrecoverable.
constexpr int kMaxReadResets = 8;

int popcount_mask(unsigned mask) {
  int bits = 0;
  for (; mask != 0; mask &= mask - 1) ++bits;
  return bits;
}

}  // namespace

FetchSupervisor::FetchSupervisor(sim::Simulator& sim, net::Network& net,
                                 const storage::FailureScenario& failure,
                                 const ClusterConfig& cfg, util::Rng rng)
    : sim_(sim), net_(net), failure_(failure), cfg_(cfg), rng_(rng) {}

ReadId FetchSupervisor::start_read(const storage::DegradedReadPlanner& planner,
                                   storage::HedgedPlan plan, NodeId reader,
                                   std::function<void(ReadOutcome)> done) {
  const ReadId id = next_read_id_++;
  Read& read = reads_[id];
  read.planner = &planner;
  read.lost = plan.lost;
  read.reader = reader;
  read.options = std::move(plan.options);
  read.completed.assign(static_cast<std::size_t>(planner.layout().n()), 0u);
  read.exclude.assign(static_cast<std::size_t>(planner.layout().n()), 0);
  read.done = std::move(done);
  ++stats_.reads_started;
  for (const storage::DegradedSource& src : plan.primary) {
    admit_fetch(id, read, src, /*hedge=*/false);
  }
  for (const storage::DegradedSource& src : plan.extras) {
    admit_fetch(id, read, src, /*hedge=*/true);
  }
  return id;
}

void FetchSupervisor::cancel_read(ReadId id) {
  const auto it = reads_.find(id);
  if (it == reads_.end()) return;
  Read& read = it->second;
  for (Fetch& f : read.fetches) {
    if (f.done || f.exhausted) continue;
    quash_fetch(read, f, FetchOutcome::kAbandoned);
    f.exhausted = true;
  }
  ++stats_.reads_cancelled;
  reads_.erase(it);
}

void FetchSupervisor::on_node_failed(NodeId node) {
  // Two passes: collect the affected reads first (fallback_replan can erase
  // reads, and its completion callbacks can start or cancel others), then
  // re-find each by id. std::map keeps the order deterministic.
  std::vector<ReadId> affected;
  for (const auto& [id, read] : reads_) {
    for (const Fetch& f : read.fetches) {
      if (!f.done && !f.exhausted && f.src.node == node) {
        affected.push_back(id);
        break;
      }
    }
  }
  for (const ReadId id : affected) {
    const auto it = reads_.find(id);
    if (it == reads_.end()) continue;
    Read& read = it->second;
    bool hit = false;
    for (Fetch& f : read.fetches) {
      if (f.done || f.exhausted || f.src.node != node) continue;
      quash_fetch(read, f, FetchOutcome::kSourceDead);
      f.exhausted = true;
      read.exclude[static_cast<std::size_t>(f.shard)] = 1;
      hit = true;
    }
    if (hit) fallback_replan(id, read);
  }
}

void FetchSupervisor::admit_fetch(ReadId id, Read& read,
                                  const storage::DegradedSource& src,
                                  bool hedge) {
  const auto shard = static_cast<std::size_t>(src.block.index);
  // Substripes of this shard neither completed nor being fetched live.
  unsigned needed = src.substripes & ~read.completed[shard];
  for (const Fetch& f : read.fetches) {
    if (f.shard == src.block.index && !f.done && !f.exhausted) {
      needed &= ~f.src.substripes;
    }
  }
  if (needed == 0u) return;
  Fetch f;
  f.shard = src.block.index;
  f.src = src;
  f.src.substripes = needed;
  f.src.fraction = static_cast<double>(popcount_mask(needed)) /
                   read.planner->code().substripe_count();
  f.hedge = hedge;
  read.fetches.push_back(std::move(f));
  launch_fetch(id, read, read.fetches.size() - 1);
}

void FetchSupervisor::launch_fetch(ReadId id, Read& read, std::size_t idx) {
  Fetch& f = read.fetches[idx];
  ++f.attempts;
  f.start = sim_.now();
  f.gen = next_gen_++;
  if (f.attempts == 1) {
    ++stats_.fetches_launched;
    if (f.hedge) ++stats_.hedges_launched;
  } else {
    ++stats_.fetch_retries;
  }
  // A last-resort read runs plain fetches: no injection, no timeout, so it
  // always makes progress (only a source death can interrupt it).
  if (read.last_resort) {
    start_transfer(id, read, idx);
    return;
  }
  // Injection draws, in fixed order: service jitter, then the transient
  // failure coin, then (only when failing) the failure point within the
  // service window. Inactive knobs draw nothing.
  const double jitter = draw_service_delay(f.src.node);
  bool failing = false;
  if (cfg_.straggler.fail_prob > 0.0) {
    failing = rng_.uniform(0.0, 1.0) < cfg_.straggler.fail_prob;
  }
  if (cfg_.fetch.timeout > 0.0) {
    f.timeout = sim_.schedule_in(cfg_.fetch.timeout, [this, id, idx] {
      const auto it = reads_.find(id);
      if (it == reads_.end()) return;
      Fetch& g = it->second.fetches[idx];
      if (g.done || g.exhausted) return;
      g.timeout = sim::EventId{};
      on_fetch_failed(id, it->second, idx, FetchOutcome::kTimeout);
    });
  }
  if (failing) {
    const double at = jitter > 0.0 ? jitter * rng_.uniform(0.0, 1.0) : 0.0;
    f.pending = sim_.schedule_in(at, [this, id, idx] {
      const auto it = reads_.find(id);
      if (it == reads_.end()) return;
      Fetch& g = it->second.fetches[idx];
      if (g.done || g.exhausted) return;
      g.pending = sim::EventId{};
      on_fetch_failed(id, it->second, idx, FetchOutcome::kTransientFailure);
    });
    return;
  }
  if (jitter > 0.0) {
    f.pending = sim_.schedule_in(jitter, [this, id, idx] {
      const auto it = reads_.find(id);
      if (it == reads_.end()) return;
      Fetch& g = it->second.fetches[idx];
      if (g.done || g.exhausted) return;
      g.pending = sim::EventId{};
      start_transfer(id, it->second, idx);
    });
    return;
  }
  start_transfer(id, read, idx);
}

void FetchSupervisor::start_transfer(ReadId id, Read& read, std::size_t idx) {
  Fetch& f = read.fetches[idx];
  const util::Bytes bytes = cfg_.block_size * f.src.fraction;
  const std::uint64_t gen = f.gen;
  f.flow = net_.transfer(f.src.node, read.reader, bytes, [this, id, idx, gen] {
    on_fetch_completed(id, idx, gen);
  });
}

void FetchSupervisor::on_fetch_completed(ReadId id, std::size_t idx,
                                         std::uint64_t gen) {
  const auto it = reads_.find(id);
  if (it == reads_.end()) return;
  Read& read = it->second;
  Fetch& f = read.fetches[idx];
  // Stale: the attempt this flow belonged to was quashed or retried (an
  // uncontended flow cannot be cancelled; its callback is guarded here).
  if (f.done || f.gen != gen) return;
  // on_node_failed quashes every live fetch from a node the moment it dies.
  assert(!failure_.is_failed(f.src.node));
  f.done = true;
  f.flow = 0;
  if (f.timeout.valid()) {
    sim_.cancel(f.timeout);
    f.timeout = sim::EventId{};
  }
  record(read, f, FetchOutcome::kCompleted);
  read.completed[static_cast<std::size_t>(f.shard)] |= f.src.substripes;
  ++read.completed_count;
  read.arrived.push_back(f.src);
  try_finish(id, read);
}

bool FetchSupervisor::try_finish(ReadId id, Read& read) {
  if (read.completed_count == 0) return false;
  if (!storage::quorum_reached(read.planner->code(), read.options,
                               read.lost.index, read.completed)) {
    return false;
  }
  int live = 0;
  for (const Fetch& g : read.fetches) {
    if (!g.done && !g.exhausted) ++live;
  }
  // min_quorum delays completion past bare reconstructability, but never
  // past the last fetch able to arrive.
  if (read.completed_count < cfg_.hedge.min_quorum && live > 0) return false;
  finish_read(id, read);
  return true;
}

void FetchSupervisor::on_fetch_failed(ReadId id, Read& read, std::size_t idx,
                                      FetchOutcome why) {
  Fetch& f = read.fetches[idx];
  quash_fetch(read, f, why);
  if (why == FetchOutcome::kTimeout) ++stats_.fetch_timeouts;
  if (why == FetchOutcome::kTransientFailure) ++stats_.transient_failures;
  if (f.attempts <= cfg_.fetch.max_retries) {
    const util::Seconds backoff =
        cfg_.fetch.retry_backoff * std::ldexp(1.0, f.attempts - 1);
    if (backoff > 0.0) {
      f.pending = sim_.schedule_in(backoff, [this, id, idx] {
        const auto it = reads_.find(id);
        if (it == reads_.end()) return;
        Fetch& g = it->second.fetches[idx];
        if (g.done || g.exhausted) return;
        g.pending = sim::EventId{};
        launch_fetch(id, it->second, idx);
      });
    } else {
      launch_fetch(id, read, idx);
    }
    return;
  }
  f.exhausted = true;
  read.exclude[static_cast<std::size_t>(f.shard)] = 1;
  fallback_replan(id, read);
}

void FetchSupervisor::fallback_replan(ReadId id, Read& read) {
  ++stats_.fallback_replans;
  const int extras = cfg_.hedge.enabled ? cfg_.hedge.extra_sources : 0;
  auto plan = read.planner->plan_hedged(read.lost, read.reader, failure_,
                                        rng_, extras, read.exclude);
  if (!plan && read.resets < kMaxReadResets &&
      std::any_of(read.exclude.begin(), read.exclude.end(),
                  [](char c) { return c != 0; })) {
    // Transient exhaustion can exclude sources the stripe still needs; give
    // them a fresh chance rather than declaring the block unrecoverable.
    // (Dead-node exclusions are redundant: plan_hedged skips failed holders
    // on its own.) Fresh fetch slots get a fresh retry budget; the reset cap
    // bounds the total work.
    ++read.resets;
    std::fill(read.exclude.begin(), read.exclude.end(), 0);
    plan = read.planner->plan_hedged(read.lost, read.reader, failure_, rng_,
                                     extras, read.exclude);
  }
  if (!plan) {
    fail_read(id, read);
    return;
  }
  read.options = std::move(plan->options);
  for (const storage::DegradedSource& src : plan->primary) {
    admit_fetch(id, read, src, /*hedge=*/false);
  }
  for (const storage::DegradedSource& src : plan->extras) {
    admit_fetch(id, read, src, /*hedge=*/true);
  }
  // Everything the fresh plan needs may already have arrived (the replan was
  // triggered by a hedge loser dying after quorum-relevant data landed).
  try_finish(id, read);
}

void FetchSupervisor::finish_read(ReadId id, Read& read) {
  int losers = 0;
  for (Fetch& f : read.fetches) {
    if (f.done || f.exhausted) continue;
    quash_fetch(read, f, FetchOutcome::kCancelledQuorum);
    f.exhausted = true;
    ++losers;
  }
  stats_.losers_cancelled += static_cast<std::uint64_t>(losers);
  ++stats_.reads_completed;
  ReadOutcome out;
  out.ok = true;
  out.sources = std::move(read.arrived);
  auto done = std::move(read.done);
  reads_.erase(id);
  if (done) done(std::move(out));
}

void FetchSupervisor::fail_read(ReadId id, Read& read) {
  if (!read.last_resort) {
    // Retry/reset budget spent, but exhaustion by timeouts or transient
    // failures is not data loss: as long as the surviving stripe can still
    // reconstruct the block, drop to plain unsupervised fetches (no
    // injection, no timeout — delivery bounded only by the network).
    auto plan = read.planner->plan_hedged(read.lost, read.reader, failure_,
                                          rng_, 0, {});
    if (plan) {
      ++stats_.last_resort_reads;
      read.last_resort = true;
      std::fill(read.exclude.begin(), read.exclude.end(), 0);
      read.options = std::move(plan->options);
      for (const storage::DegradedSource& src : plan->primary) {
        admit_fetch(id, read, src, /*hedge=*/false);
      }
      try_finish(id, read);
      return;
    }
  }
  for (Fetch& f : read.fetches) {
    if (f.done || f.exhausted) continue;
    quash_fetch(read, f, FetchOutcome::kAbandoned);
    f.exhausted = true;
  }
  ++stats_.reads_failed;
  auto done = std::move(read.done);
  reads_.erase(id);
  if (done) done(ReadOutcome{});
}

void FetchSupervisor::quash_fetch(Read& read, Fetch& f, FetchOutcome why) {
  if (f.pending.valid()) {
    sim_.cancel(f.pending);
    f.pending = sim::EventId{};
  }
  if (f.timeout.valid()) {
    sim_.cancel(f.timeout);
    f.timeout = sim::EventId{};
  }
  if (f.flow != 0) {
    net_.cancel(f.flow);
    f.flow = 0;
  }
  // Invalidate the attempt: an uncontended flow's callback may still be
  // queued for this timestamp, and it must not complete a quashed fetch.
  f.gen = 0;
  if (f.attempts > 0) record(read, f, why);
}

void FetchSupervisor::record(const Read& read, const Fetch& f,
                             FetchOutcome outcome) {
  FetchRecord r;
  r.start = f.start;
  r.end = sim_.now();
  r.src = f.src.node;
  r.dst = read.reader;
  r.fraction = f.src.fraction;
  r.hedge = f.hedge;
  r.attempt = f.attempts - 1;
  r.outcome = outcome;
  records_.push_back(r);
}

double FetchSupervisor::draw_service_delay(NodeId src) {
  const StragglerConfig& st = cfg_.straggler;
  if (st.service_mean <= 0.0) return 0.0;
  double d;
  if (st.pareto_alpha > 1.0) {
    // Pareto with mean preserved: xm = mean * (alpha - 1) / alpha.
    const double xm = st.service_mean * (st.pareto_alpha - 1.0) /
                      st.pareto_alpha;
    double u = rng_.uniform(0.0, 1.0);
    if (u < 1e-12) u = 1e-12;
    d = xm / std::pow(u, 1.0 / st.pareto_alpha);
  } else {
    d = rng_.exponential(st.service_mean);
  }
  if (st.is_straggler(src, net_.topology().num_nodes())) d *= st.slowdown;
  return d;
}

}  // namespace dfs::mapreduce
