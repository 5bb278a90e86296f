#include "dfs/mapreduce/map_phase.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "dfs/mapreduce/fault_supervisor.h"
#include "dfs/mapreduce/shuffle_phase.h"

namespace dfs::mapreduce {

namespace {
// Speculation backs up an attempt once it has run this many times the job's
// mean completed-map runtime ...
constexpr double kSpeculationSlowdown = 1.5;
// ... and only after this fraction of the job's maps has completed, so the
// mean is representative.
constexpr double kSpeculationMinCompletedFraction = 0.1;
}  // namespace

void MapPhase::activate_job(JobState& j) {
  assert(!j.active);
  j.active = true;
  // Jobs activate in submission (id) order — same-time activations fire
  // FIFO — so appending keeps the active-jobs index ascending.
  const core::JobId id = s_.id_of(j);
  assert(s_.active_jobs.empty() || s_.active_jobs.back() < id);
  s_.active_jobs.push_back(id);
  // One map task per native block. A task whose input has no surviving
  // readable copy becomes a degraded task (§II-B). For k == 1 layouts
  // (replication), every surviving shard of the stripe is a readable copy,
  // so the task stays "local" to all replica holders and a degraded task
  // only arises when every copy is gone.
  const int blocks = j.layout->num_native_blocks();
  const bool replicated = j.layout->k() == 1;
  j.maps.resize(static_cast<std::size_t>(blocks));
  for (int i = 0; i < blocks; ++i) {
    MapTaskState& t = j.maps[static_cast<std::size_t>(i)];
    t.block = j.layout->native_block(i);
    t.home = j.layout->node_of(t.block);
    t.lost = s_.failure.is_failed(t.home);
    if (replicated) {
      for (int b = 0; b < j.layout->n(); ++b) {
        const NodeId holder =
            j.layout->node_of(storage::BlockId{t.block.stripe, b});
        if (!s_.failure.is_failed(holder)) t.locations.push_back(holder);
      }
      t.lost = t.locations.empty();
    } else if (!t.lost) {
      t.locations.push_back(t.home);
    }
    if (t.locations.empty()) {
      j.pending_degraded.push(i);
      continue;
    }
    for (const NodeId loc : t.locations) {
      j.pending.repush(loc, i);
      const RackId rack = s_.cfg.topology.rack_of(loc);
      if (std::find(t.location_racks.begin(), t.location_racks.end(), rack) ==
          t.location_racks.end()) {
        t.location_racks.push_back(rack);
      }
    }
    for (const RackId rack : t.location_racks) j.pending.add_to_rack(rack);
    ++j.pending_nondegraded;
  }
  j.total_m = blocks;
  j.total_md = j.pending_degraded.live_count();
}

void MapPhase::reclassify_after_failure(JobState& j, NodeId node) {
  for (std::size_t i = 0; i < j.maps.size(); ++i) {
    MapTaskState& t = j.maps[i];
    if (t.done) continue;
    const auto it = std::find(t.locations.begin(), t.locations.end(), node);
    if (it == t.locations.end()) continue;
    t.locations.erase(it);
    if (t.assigned) {
      // Attempts in flight keep running: the model is a storage (DataNode)
      // loss, not a TaskTracker death. Only the copy list shrinks, so any
      // later speculative backup runs degraded.
      if (t.locations.empty()) t.lost = true;
      continue;
    }
    j.pending.invalidate(node, static_cast<int>(i));
    const RackId rack = s_.cfg.topology.rack_of(node);
    bool rack_still_has_copy = false;
    for (const NodeId loc : t.locations) {
      if (s_.cfg.topology.rack_of(loc) == rack) {
        rack_still_has_copy = true;
        break;
      }
    }
    if (!rack_still_has_copy) {
      const auto rit =
          std::find(t.location_racks.begin(), t.location_racks.end(), rack);
      if (rit != t.location_racks.end()) {
        t.location_racks.erase(rit);
        j.pending.remove_from_rack(rack);
      }
    }
    if (t.locations.empty()) {
      // Last readable copy gone: the task joins the degraded pool and the
      // pacing totals (M_d) grow to match. Queue entries elsewhere are
      // already invalidated, so no pop can return the task node-locally.
      t.lost = true;
      --j.pending_nondegraded;
      ++j.total_md;
      j.pending_degraded.push(static_cast<int>(i));
    }
  }
}

void MapPhase::reclassify_after_repair(JobState& j, NodeId node) {
  const bool replicated = j.layout->k() == 1;
  for (std::size_t i = 0; i < j.maps.size(); ++i) {
    MapTaskState& t = j.maps[i];
    if (t.done) continue;
    bool holds_copy = false;
    if (replicated) {
      for (int b = 0; b < j.layout->n() && !holds_copy; ++b) {
        holds_copy =
            j.layout->node_of(storage::BlockId{t.block.stripe, b}) == node;
      }
    } else {
      holds_copy = t.home == node;
    }
    if (!holds_copy) continue;
    if (std::find(t.locations.begin(), t.locations.end(), node) !=
        t.locations.end()) {
      continue;
    }
    if (t.assigned) {
      // The running attempt keeps its classification; restoring the copy
      // list lets later speculative backups read the block again.
      t.locations.push_back(node);
      t.lost = false;
      continue;
    }
    if (t.locations.empty()) {
      // Leaves the degraded pool: its input is readable again. O(1): the
      // pool entry goes stale where it stands and is skipped on a later pop.
      if (!j.pending_degraded.invalidate(static_cast<int>(i))) {
        // A pending task with no readable copy must be in the degraded pool;
        // anything else means the pending indexes are corrupt. Fail loudly
        // in release builds too — silently continuing would let the pacing
        // counters drift.
        throw std::logic_error(
            "reclassify_after_repair: pending task with no locations is "
            "missing from the degraded pool");
      }
      t.lost = false;
      ++j.pending_nondegraded;
      --j.total_md;
    }
    t.locations.push_back(node);
    j.pending.repush(node, static_cast<int>(i));
    const RackId rack = s_.cfg.topology.rack_of(node);
    if (std::find(t.location_racks.begin(), t.location_racks.end(), rack) ==
        t.location_racks.end()) {
      t.location_racks.push_back(rack);
      j.pending.add_to_rack(rack);
    }
  }
}

// --- assignment ----------------------------------------------------------------

int MapPhase::pop_pending(JobState& j, NodeId node) {
  // Entries whose task was assigned through another replica's queue, or
  // whose copy on this node was lost mid-run, were invalidated at that
  // moment; pop() skips them.
  const std::optional<int> map_idx = j.pending.pop(node);
  return map_idx ? *map_idx : -1;
}

void MapPhase::retire_pending(JobState& j, int map_idx) {
  MapTaskState& t = j.maps[static_cast<std::size_t>(map_idx)];
  assert(!t.assigned);
  t.assigned = true;
  // Queue entries elsewhere become stale; the queue the task was popped from
  // already consumed its entry, so the invalidate is a no-op there.
  for (const NodeId loc : t.locations) j.pending.invalidate(loc, map_idx);
  for (const RackId rack : t.location_racks) j.pending.remove_from_rack(rack);
  --j.pending_nondegraded;
}

void MapPhase::assign_local(core::JobId id, NodeId s) {
  JobState& j = s_.job(id);
  if (j.pending.live_count(s) > 0) {
    const int map_idx = pop_pending(j, s);
    assert(map_idx >= 0);
    retire_pending(j, map_idx);
    start_map(j, map_idx, s, MapTaskKind::kNodeLocal, s);
    return;
  }
  // Rack-local: steal from the rack-mate with the largest backlog.
  const NodeId best = j.pending.best_in_rack(s_.cfg.topology.rack_of(s));
  if (best < 0) throw std::logic_error("assign_local without a local task");
  const int map_idx = pop_pending(j, best);
  assert(map_idx >= 0);
  retire_pending(j, map_idx);
  start_map(j, map_idx, s, MapTaskKind::kRackLocal, best);
}

void MapPhase::assign_remote(core::JobId id, NodeId s) {
  JobState& j = s_.job(id);
  // Steal from the longest pending queue in another rack.
  const NodeId best = j.pending.best_remote(s_.cfg.topology.rack_of(s));
  if (best < 0) throw std::logic_error("assign_remote without a remote task");
  const int map_idx = pop_pending(j, best);
  assert(map_idx >= 0);
  retire_pending(j, map_idx);
  start_map(j, map_idx, s, MapTaskKind::kRemote, best);
}

void MapPhase::assign_degraded(core::JobId id, NodeId s) {
  JobState& j = s_.job(id);
  if (j.pending_degraded.live_count() <= 0) {
    throw std::logic_error("assign_degraded without a degraded task");
  }
  // pop() discards the stale prefix: entries whose task left the pool via
  // reclassify_after_repair or re-entered under a newer generation.
  const std::optional<int> popped = j.pending_degraded.pop();
  if (!popped) {
    throw std::logic_error(
        "assign_degraded: the live count says a task exists but the "
        "pool holds only stale entries");
  }
  const int map_idx = *popped;
  j.maps[static_cast<std::size_t>(map_idx)].assigned = true;
  s_.last_degraded_assign[static_cast<std::size_t>(
      s_.cfg.topology.rack_of(s))] = s_.sim.now();
  start_map(j, map_idx, s, MapTaskKind::kDegraded, -1);
}

// --- map task lifecycle ----------------------------------------------------------

void MapPhase::start_map(JobState& j, int map_idx, NodeId s, MapTaskKind kind,
                         NodeId fetch_source, bool backup) {
  SlaveState& sl = s_.slave(s);
  assert(sl.alive && sl.free_map_slots > 0);
  --sl.free_map_slots;
  MapTaskState& t = j.maps[static_cast<std::size_t>(map_idx)];
  assert(t.assigned);  // callers retire the task from the pending indexes

  MapTaskRecord rec;
  rec.id = static_cast<TaskId>(s_.result.map_tasks.size());
  rec.job = j.spec.id;
  rec.block = t.block;
  rec.map_index = map_idx;
  rec.attempt = t.attempts++;
  rec.exec_node = s;
  rec.source_node = fetch_source;
  rec.kind = kind;
  rec.time_scale = s_.cfg.time_scale(s);
  rec.assign_time = s_.sim.now();
  rec.speculative = backup;
  const int record_idx = static_cast<int>(s_.result.map_tasks.size());

  if (!backup) {
    // Backups are extra attempts: they never advance the pacing counters
    // (m, m_d), the per-kind task counts, or the first-launch milestone.
    t.record = record_idx;
    t.launched_kind = kind;
    t.launched_cost = 0.0;  // degraded launches overwrite once planned
    ++j.m;
    if (kind == MapTaskKind::kDegraded) ++j.md;
    if (j.metrics.first_map_launch < 0.0) {
      j.metrics.first_map_launch = s_.sim.now();
    }
    switch (kind) {
      case MapTaskKind::kNodeLocal:
      case MapTaskKind::kRackLocal:
        ++j.metrics.local_tasks;
        break;
      case MapTaskKind::kRemote:
        ++j.metrics.remote_tasks;
        break;
      case MapTaskKind::kDegraded:
        ++j.metrics.degraded_tasks;
        break;
    }
  }

  const core::JobId job_id = s_.id_of(j);
  // Register the live attempt. Pure bookkeeping (no events, no RNG), so it
  // is maintained whether or not the fault layer is on; every lifecycle
  // callback looks the attempt up first and no-ops once it is finalized.
  MapAttempt attempt;
  attempt.job = job_id;
  attempt.map_idx = map_idx;
  attempt.backup = backup;
  MapAttempt& reg = s_.map_attempts.emplace(record_idx, std::move(attempt));

  if (kind == MapTaskKind::kDegraded) {
    // Every degraded read runs under the fetch supervisor. Only the primary
    // plan draws from j.rng; hedges, timeouts, injection and fallback
    // replans draw from the supervisor's own stream.
    const int extras = s_.cfg.hedge.enabled ? s_.cfg.hedge.extra_sources : 0;
    auto hplan = j.planner->plan_hedged(t.block, s, s_.failure, j.rng, extras);
    if (!backup) {
      // Cost-weighted pacing charges the primary option's volume (hedge
      // fetches are redundant bytes, not useful work). An unrecoverable plan
      // is charged at the expected volume so the m_d/M_d ratio stays
      // consistent with its total_md entry.
      double plan_blocks = j.expected_degraded_cost;
      if (hplan) {
        plan_blocks = 0.0;
        for (const auto& src : hplan->primary) plan_blocks += src.fraction;
      }
      t.launched_cost = plan_blocks;
      j.md_cost += plan_blocks;
    }
    if (!hplan) {
      rec.unrecoverable = true;
      rec.fetch_done_time = s_.sim.now();
      rec.finish_time = s_.sim.now();
      s_.result.map_tasks.push_back(std::move(rec));
      s_.result.data_loss = true;
      // Count it done so the job can still terminate.
      s_.sim.schedule_in(0.0, [this, job_id, record_idx, map_idx] {
        on_map_complete(job_id, record_idx, map_idx);
      });
      return;
    }
    rec.sources = hplan->primary;  // replaced by the arrived set on completion
    s_.result.map_tasks.push_back(std::move(rec));
    reg.read = s_.fetch.start_read(
        *j.planner, std::move(*hplan), s,
        [this, job_id, record_idx, map_idx](ReadOutcome out) {
          MapAttempt* attempt_entry = s_.map_attempts.find(record_idx);
          if (attempt_entry == nullptr || attempt_entry->doomed) return;
          attempt_entry->read = 0;
          MapTaskRecord& r =
              s_.result.map_tasks[static_cast<std::size_t>(record_idx)];
          if (!out.ok) {
            // Every fallback replan exhausted mid-flight: the block turned
            // out unrecoverable after all.
            r.unrecoverable = true;
            r.sources.clear();
            r.fetch_done_time = s_.sim.now();
            s_.result.data_loss = true;
            on_map_complete(job_id, record_idx, map_idx);
            return;
          }
          r.sources = std::move(out.sources);
          on_map_input_ready(job_id, record_idx, map_idx);
        });
    return;
  }

  s_.result.map_tasks.push_back(std::move(rec));
  if (kind == MapTaskKind::kNodeLocal) {
    on_map_input_ready(job_id, record_idx, map_idx);
  } else {
    // Rack-local and remote tasks download the input block (or a replica)
    // from the location the assignment chose.
    assert(fetch_source >= 0);
    const net::FlowId flow =
        s_.net.transfer(fetch_source, s, s_.cfg.block_size,
                        [this, job_id, record_idx, map_idx] {
                          on_map_input_ready(job_id, record_idx, map_idx);
                        });
    reg.flows.push_back(flow);
  }
}

void MapPhase::on_map_input_ready(core::JobId job_id, int record_idx,
                                  int map_idx) {
  MapAttempt* reg = s_.map_attempts.find(record_idx);
  if (reg == nullptr || reg->doomed) {
    // The attempt was killed (or its node compute-failed) while the input
    // was in flight; an uncancellable zero-time flow delivered anyway.
    return;
  }
  reg->flows.clear();  // fetches landed; nothing left to cancel
  JobState& j = s_.job(job_id);
  MapTaskRecord& rec =
      s_.result.map_tasks[static_cast<std::size_t>(record_idx)];
  rec.fetch_done_time = s_.sim.now();
  if (j.maps[static_cast<std::size_t>(map_idx)].done) {
    // Another attempt won while this one was still fetching; release the
    // slot without burning processing time (the kill a TaskTracker applies).
    rec.finish_time = s_.sim.now();
    rec.winner = false;
    rec.outcome = AttemptOutcome::kLostRace;
    ++s_.slave(rec.exec_node).free_map_slots;
    s_.map_attempts.erase(record_idx);
    return;
  }
  const util::Seconds duration =
      j.rng.normal(j.spec.map_time.mean, j.spec.map_time.stddev) *
      s_.cfg.time_scale(rec.exec_node);
  if (s_.cfg.fault.injection_enabled() &&
      s_.cfg.fault.node_flaky(rec.exec_node) &&
      j.rng.uniform(0.0, 1.0) < s_.cfg.fault.attempt_failure_prob) {
    // Transient crash partway through processing.
    const double frac = j.rng.uniform(0.0, 1.0);
    s_.sim.schedule_in(duration * frac, [this, job_id, record_idx, map_idx] {
      fault_->on_map_attempt_failed(job_id, record_idx, map_idx);
    });
    return;
  }
  s_.sim.schedule_in(duration, [this, job_id, record_idx, map_idx] {
    on_map_complete(job_id, record_idx, map_idx);
  });
}

void MapPhase::on_map_complete(core::JobId job_id, int record_idx,
                               int map_idx) {
  const MapAttempt* reg = s_.map_attempts.find(record_idx);
  if (reg == nullptr || reg->doomed) {
    // Finalized (killed / failed) before this completion event fired.
    return;
  }
  s_.map_attempts.erase(record_idx);
  JobState& j = s_.job(job_id);
  MapTaskState& t = j.maps[static_cast<std::size_t>(map_idx)];
  MapTaskRecord& rec =
      s_.result.map_tasks[static_cast<std::size_t>(record_idx)];
  if (rec.finish_time < 0.0) rec.finish_time = s_.sim.now();
  ++s_.slave(rec.exec_node).free_map_slots;
  if (t.done) {
    // A speculative race already produced this task's output; this attempt
    // merely releases its slot.
    rec.winner = false;
    rec.outcome = AttemptOutcome::kLostRace;
    return;
  }
  t.done = true;
  ++j.maps_done;
  j.completed_map_runtime_sum += rec.runtime();
  j.completed_map_records.push_back(record_idx);
  if (s_.hooks->on_map_finish && !rec.unrecoverable) {
    s_.hooks->on_map_finish(rec);
  }

  // Shuffle: push this map's partition to every already-assigned reducer
  // (skipping doomed attempts and partitions a reducer already holds from a
  // previous incarnation of this map task).
  for (int r = 0; r < j.spec.num_reducers; ++r) {
    ReduceTaskState& rt = j.reduces[static_cast<std::size_t>(r)];
    if (!rt.assigned || rt.doomed) continue;
    if (!rt.fetched.empty() && rt.fetched[static_cast<std::size_t>(map_idx)]) {
      continue;
    }
    shuffle_->start_partition_fetch(j, r, record_idx);
  }
  if (j.maps_done == j.total_m) {
    j.metrics.map_phase_end = s_.sim.now();
    // A re-executed map (lost-output recovery) can be the last barrier both
    // for reducers that were already fully fetched and for the job itself.
    for (int r = 0; r < j.spec.num_reducers; ++r) {
      ReduceTaskState& rt = j.reduces[static_cast<std::size_t>(r)];
      if (rt.assigned && !rt.doomed && !rt.processing &&
          rt.partitions_fetched == j.total_m) {
        shuffle_->maybe_start_reduce_processing(j, r);
      }
    }
    s_.maybe_finish_job(j);
  }
}

void MapPhase::try_speculate(NodeId s) {
  SlaveState& sl = s_.slave(s);
  if (sl.blacklisted) return;
  // Iterating the live index is safe: backup launches never finish or
  // activate a job, so no retire can shift it mid-walk.
  for (std::size_t ji = 0;
       ji < s_.active_jobs.size() && sl.free_map_slots > 0; ++ji) {
    JobState& j = s_.job(s_.active_jobs[ji]);
    if (j.m < j.total_m) continue;  // unassigned work takes precedence
    if (j.maps_done >= j.total_m) continue;
    if (static_cast<double>(j.maps_done) <
        kSpeculationMinCompletedFraction * j.total_m) {
      continue;
    }
    const double mean_runtime =
        j.completed_map_runtime_sum / static_cast<double>(j.maps_done);
    // Back up the longest-running attempt that is sufficiently overdue.
    int candidate = -1;
    double worst_elapsed = kSpeculationSlowdown * mean_runtime;
    for (std::size_t i = 0; i < j.maps.size(); ++i) {
      const MapTaskState& t = j.maps[i];
      if (!t.assigned || t.done || t.has_backup) continue;
      const auto& rec =
          s_.result.map_tasks[static_cast<std::size_t>(t.record)];
      if (rec.exec_node == s) continue;  // back up on a *different* node
      const double elapsed = s_.sim.now() - rec.assign_time;
      if (elapsed > worst_elapsed) {
        worst_elapsed = elapsed;
        candidate = static_cast<int>(i);
      }
    }
    if (candidate < 0) continue;
    MapTaskState& t = j.maps[static_cast<std::size_t>(candidate)];
    t.has_backup = true;
    MapTaskKind kind;
    NodeId source = -1;
    if (t.lost) {
      kind = MapTaskKind::kDegraded;
    } else if (std::find(t.locations.begin(), t.locations.end(), s) !=
               t.locations.end()) {
      kind = MapTaskKind::kNodeLocal;
      source = s;
    } else {
      source = t.locations.front();
      for (const NodeId loc : t.locations) {
        if (s_.cfg.topology.same_rack(loc, s)) {
          source = loc;
          break;
        }
      }
      kind = s_.cfg.topology.same_rack(source, s) ? MapTaskKind::kRackLocal
                                                  : MapTaskKind::kRemote;
    }
    start_map(j, candidate, s, kind, source, /*backup=*/true);
  }
}

void MapPhase::unlaunch_map(JobState& j, MapTaskState& t) {
  --j.m;
  if (t.launched_kind == MapTaskKind::kDegraded) {
    --j.md;
    j.md_cost -= t.launched_cost;
  }
  t.launched_cost = 0.0;
}

}  // namespace dfs::mapreduce
