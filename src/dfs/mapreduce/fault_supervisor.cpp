#include "dfs/mapreduce/fault_supervisor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dfs/mapreduce/map_phase.h"
#include "dfs/mapreduce/shuffle_phase.h"

namespace dfs::mapreduce {

void FaultSupervisor::on_compute_failed(NodeId node) {
  if (!s_.cfg.fault.compute_failures) {
    throw std::logic_error(
        "on_compute_failed requires FaultConfig::compute_failures");
  }
  SlaveState& s = s_.slave(node);
  // alive is not consulted: it tracks storage death, which normally happens
  // in the same failure event just before this call.
  if (!s.heartbeating) return;
  s.heartbeating = false;
  s.compute_fail_time = s_.sim.now();

  // The attempts physically die now: cancel their transfers and mark them
  // doomed so they never produce output. The master's view (slot counts,
  // pending pools, records) only changes at detection.
  for (const int record_idx : s_.sorted_attempt_records()) {
    MapAttempt& a = s_.map_attempts.at(record_idx);
    const MapTaskRecord& rec =
        s_.result.map_tasks[static_cast<std::size_t>(record_idx)];
    if (rec.exec_node != node) continue;
    a.doomed = true;
    for (const net::FlowId f : a.flows) s_.net.cancel(f);
    a.flows.clear();
    if (a.read != 0) {
      s_.fetch.cancel_read(a.read);
      a.read = 0;
    }
  }
  for (const core::JobId job_id : s_.active_jobs) {
    JobState& j = s_.job(job_id);
    for (std::size_t r = 0; r < j.reduces.size(); ++r) {
      ReduceTaskState& rt = j.reduces[r];
      if (!rt.assigned) continue;
      if (rt.node == node &&
          s_.result.reduce_tasks[static_cast<std::size_t>(rt.record)]
                  .finish_time < 0.0) {
        rt.doomed = true;
        rt.inflight_for_each(
            [this](const InflightFetch& f) { s_.net.cancel(f.flow); });
        rt.inflight_clear();
      } else {
        // Shuffle fetches sourced from the dead node stall: the serving map
        // output is gone. Drop them in a single queue-order pass (erasing
        // one at a time is quadratic in the in-flight count);
        // reap_dead_node re-executes the maps.
        rt.inflight_remove_if(
            [node](const InflightFetch& f) { return f.src == node; },
            [this](const InflightFetch& f) { s_.net.cancel(f.flow); });
      }
    }
  }

  // Hadoop-style expiry: declared dead once the last heartbeat is older than
  // the expiry window.
  const util::Epoch::Ticket inc = s.incarnation.ticket();
  const util::Seconds detect_at = std::max(
      s_.sim.now(), s.last_heartbeat + s_.cfg.fault.expiry_multiplier *
                                           s_.cfg.heartbeat_interval);
  s_.sim.schedule_at(detect_at, [this, node, inc] {
    const SlaveState& sl = s_.slave(node);
    if (!sl.incarnation.valid(inc) || sl.heartbeating) return;
    declare_slave_dead(node);
  });
}

void FaultSupervisor::restore_compute(NodeId node) {
  SlaveState& s = s_.slave(node);
  // The node comes back with a fresh TaskTracker: doomed attempts and map
  // outputs are gone regardless of whether the expiry fired. Reaping is
  // idempotent, so a death the master already detected reaps to a no-op;
  // a repair that beats the expiry window does the real work here.
  reap_dead_node(node);
  s.incarnation.bump();  // stale detection / unblacklist timers now no-op
  s.heartbeating = true;
  s.compute_fail_time = -1.0;
  s.recent_failures = 0;
  s.blacklisted = false;
  s.free_map_slots = s_.cfg.map_slots_per_node;
  s.free_reduce_slots = s_.cfg.reduce_slots_per_node;
}

void FaultSupervisor::declare_slave_dead(NodeId node) {
  SlaveState& s = s_.slave(node);
  DetectionRecord det;
  det.node = node;
  det.fail_time = s.compute_fail_time;
  det.detect_time = s_.sim.now();
  s_.result.detections.push_back(det);
  s.alive = false;  // may already be false (storage failed alongside)
  reap_dead_node(node);
  // The dead TaskTracker's slot ledger is void; a repaired node restarts
  // with a full complement.
  s.free_map_slots = s_.cfg.map_slots_per_node;
  s.free_reduce_slots = s_.cfg.reduce_slots_per_node;
}

void FaultSupervisor::reap_dead_node(NodeId node) {
  // (1) Finalize the doomed map attempts on the node; requeue their tasks
  // or promote a surviving speculative copy.
  for (const int record_idx : s_.sorted_attempt_records()) {
    const MapAttempt* a = s_.map_attempts.find(record_idx);
    if (a == nullptr) continue;
    MapTaskRecord& rec =
        s_.result.map_tasks[static_cast<std::size_t>(record_idx)];
    if (rec.exec_node != node || !a->doomed) continue;
    const core::JobId job_id = a->job;
    const int map_idx = a->map_idx;
    const bool backup = a->backup;
    if (rec.finish_time < 0.0) rec.finish_time = s_.sim.now();
    rec.winner = false;
    rec.outcome = AttemptOutcome::kKilled;
    s_.map_attempts.erase(record_idx);
    JobState& j = s_.job(job_id);
    if (j.finished) continue;
    MapTaskState& t = j.maps[static_cast<std::size_t>(map_idx)];
    if (t.done || backup) {
      // Losers and backups leave the task itself untouched.
      if (backup) t.has_backup = false;
      continue;
    }
    const int runner = find_running_attempt(job_id, map_idx);
    if (runner >= 0) {
      t.record = runner;
      t.has_backup = false;
      s_.map_attempts.at(runner).backup = false;
      continue;
    }
    map_->unlaunch_map(j, t);
    requeue_map_task(j, map_idx);
  }

  // (2) Kill the reduce attempts that were running on the node.
  for (const core::JobId job_id : s_.active_jobs) {
    JobState& j = s_.job(job_id);
    for (std::size_t r = 0; r < j.reduces.size(); ++r) {
      ReduceTaskState& rt = j.reduces[r];
      if (!rt.assigned || rt.node != node) continue;
      ReduceTaskRecord& rec =
          s_.result.reduce_tasks[static_cast<std::size_t>(rt.record)];
      if (rec.finish_time >= 0.0) continue;  // finished before the death
      rec.finish_time = s_.sim.now();
      rec.outcome = AttemptOutcome::kKilled;
      shuffle_->reset_reduce_attempt(j, static_cast<int>(r));
    }
  }

  // (3) Lost-map-output re-execution: completed maps of unfinished jobs ran
  // on the dead node and their shuffle outputs died with it. Re-execute the
  // ones some reducer still needs. Snapshot the index: revert_completed_map
  // never finishes a job, but abort never runs here either — keep the walk
  // robust to future retires all the same.
  const std::vector<core::JobId> active_snapshot = s_.active_jobs;
  for (const core::JobId job_id : active_snapshot) {
    JobState& j = s_.job(job_id);
    if (j.finished) continue;
    if (j.spec.num_reducers == 0) continue;
    const std::vector<int> completed = j.completed_map_records;  // snapshot
    for (const int record_idx : completed) {
      const MapTaskRecord& rec =
          s_.result.map_tasks[static_cast<std::size_t>(record_idx)];
      if (rec.exec_node != node || rec.output_lost) continue;
      bool needed = false;
      for (const ReduceTaskState& rt : j.reduces) {
        if (rt.processing) continue;  // already pulled everything it needs
        if (!rt.assigned || rt.doomed ||
            !rt.fetched[static_cast<std::size_t>(rec.map_index)]) {
          needed = true;
          break;
        }
      }
      if (needed) revert_completed_map(j, rec.map_index, record_idx);
    }
  }
}

void FaultSupervisor::requeue_map_task(JobState& j, int map_idx) {
  MapTaskState& t = j.maps[static_cast<std::size_t>(map_idx)];
  const bool was_degraded = t.launched_kind == MapTaskKind::kDegraded;
  t.assigned = false;
  t.has_backup = false;
  t.record = -1;
  if (t.locations.empty()) {
    // No readable copy anymore: the task re-enters as degraded. It joins
    // M_d unless its launch already counted there.
    t.lost = true;
    if (!was_degraded) ++j.total_md;
    j.pending_degraded.push(map_idx);
    return;
  }
  // A readable copy exists (possibly repaired while the attempt ran): the
  // task re-enters the per-node pools. If it launched as degraded it leaves
  // the M_d population.
  if (was_degraded) --j.total_md;
  t.lost = false;
  // The rack list goes stale for assigned tasks (reclassify_after_failure
  // skips them before rack maintenance); rebuild it from the live locations.
  t.location_racks.clear();
  for (const NodeId loc : t.locations) {
    j.pending.repush(loc, map_idx);
    const RackId rack = s_.cfg.topology.rack_of(loc);
    if (std::find(t.location_racks.begin(), t.location_racks.end(), rack) ==
        t.location_racks.end()) {
      t.location_racks.push_back(rack);
      j.pending.add_to_rack(rack);
    }
  }
  ++j.pending_nondegraded;
}

void FaultSupervisor::revert_completed_map(JobState& j, int map_idx,
                                           int record_idx) {
  MapTaskState& t = j.maps[static_cast<std::size_t>(map_idx)];
  MapTaskRecord& rec =
      s_.result.map_tasks[static_cast<std::size_t>(record_idx)];
  rec.output_lost = true;
  t.done = false;
  --j.maps_done;
  j.completed_map_runtime_sum -= rec.runtime();
  const auto it = std::find(j.completed_map_records.begin(),
                            j.completed_map_records.end(), record_idx);
  if (it != j.completed_map_records.end()) j.completed_map_records.erase(it);
  j.metrics.map_phase_end = -1.0;  // the map phase reopened
  const core::JobId job_id = s_.id_of(j);
  const int runner = find_running_attempt(job_id, map_idx);
  if (runner >= 0) {
    // A speculative copy is still running elsewhere: promote it to primary.
    // The task stays assigned and the pacing counters keep the original
    // launch, so nothing to reverse.
    t.record = runner;
    t.has_backup = false;
    s_.map_attempts.at(runner).backup = false;
    return;
  }
  map_->unlaunch_map(j, t);
  requeue_map_task(j, map_idx);
}

int FaultSupervisor::find_running_attempt(core::JobId job_id,
                                          int map_idx) const {
  for (const int record_idx : s_.sorted_attempt_records()) {
    const MapAttempt& a = s_.map_attempts.at(record_idx);
    if (a.job == job_id && a.map_idx == map_idx && !a.doomed) {
      return record_idx;
    }
  }
  return -1;
}

void FaultSupervisor::on_map_attempt_failed(core::JobId job_id,
                                            int record_idx, int map_idx) {
  const MapAttempt* a = s_.map_attempts.find(record_idx);
  if (a == nullptr || a->doomed) return;
  const bool backup = a->backup;
  s_.map_attempts.erase(record_idx);
  JobState& j = s_.job(job_id);
  MapTaskState& t = j.maps[static_cast<std::size_t>(map_idx)];
  MapTaskRecord& rec =
      s_.result.map_tasks[static_cast<std::size_t>(record_idx)];
  rec.finish_time = s_.sim.now();
  rec.winner = false;
  rec.outcome = AttemptOutcome::kFailed;
  ++s_.slave(rec.exec_node).free_map_slots;
  note_attempt_failure(rec.exec_node);
  if (t.done) return;  // a winner already exists; the crash is moot
  if (backup) {
    t.has_backup = false;  // speculation may retry later
    return;
  }
  ++t.failures;
  if (t.failures >= s_.cfg.fault.max_attempts) {
    abort_job(j);
    return;
  }
  // The task sits out an exponential backoff before re-entering the pending
  // pools; it stays `assigned` meanwhile so nothing double-launches it.
  map_->unlaunch_map(j, t);
  const util::Seconds backoff =
      s_.cfg.fault.retry_backoff * std::pow(2.0, t.failures - 1);
  s_.sim.schedule_in(backoff, [this, job_id, map_idx] {
    JobState& j2 = s_.job(job_id);
    if (j2.finished) return;
    MapTaskState& t2 = j2.maps[static_cast<std::size_t>(map_idx)];
    if (t2.done || !t2.assigned) return;
    if (find_running_attempt(job_id, map_idx) >= 0) return;
    requeue_map_task(j2, map_idx);
  });
}

void FaultSupervisor::on_reduce_attempt_failed(core::JobId job_id,
                                               int reduce_idx,
                                               util::Epoch::Ticket epoch) {
  JobState& j = s_.job(job_id);
  ReduceTaskState& rt = j.reduces[static_cast<std::size_t>(reduce_idx)];
  if (!rt.epoch.valid(epoch) || rt.doomed) return;
  ReduceTaskRecord& rec =
      s_.result.reduce_tasks[static_cast<std::size_t>(rt.record)];
  rec.finish_time = s_.sim.now();
  rec.outcome = AttemptOutcome::kFailed;
  ++s_.slave(rt.node).free_reduce_slots;
  note_attempt_failure(rt.node);
  rt.inflight_for_each([this](const InflightFetch& f) { s_.net.cancel(f.flow); });
  rt.inflight_clear();
  ++rt.failures;
  if (rt.failures >= s_.cfg.fault.max_attempts) {
    abort_job(j);
    return;
  }
  rt.epoch.bump();  // neutralizes any stale events of the dead attempt
  rt.processing = false;
  const util::Epoch::Ticket armed_epoch = rt.epoch.ticket();
  const util::Seconds backoff =
      s_.cfg.fault.retry_backoff * std::pow(2.0, rt.failures - 1);
  // `assigned` stays true through the backoff so the task is not handed out
  // again before it elapses.
  s_.sim.schedule_in(backoff, [this, job_id, reduce_idx, armed_epoch] {
    JobState& j2 = s_.job(job_id);
    ReduceTaskState& rt2 = j2.reduces[static_cast<std::size_t>(reduce_idx)];
    if (j2.finished || !rt2.epoch.valid(armed_epoch) || rt2.doomed ||
        !rt2.assigned) {
      return;
    }
    shuffle_->reset_reduce_attempt(j2, reduce_idx);
  });
}

void FaultSupervisor::abort_job(JobState& j) {
  const core::JobId job_id = s_.id_of(j);
  for (const int record_idx : s_.sorted_attempt_records()) {
    const MapAttempt* a = s_.map_attempts.find(record_idx);
    if (a == nullptr || a->job != job_id) continue;
    MapTaskRecord& rec =
        s_.result.map_tasks[static_cast<std::size_t>(record_idx)];
    if (rec.finish_time < 0.0) rec.finish_time = s_.sim.now();
    rec.winner = false;
    rec.outcome = AttemptOutcome::kKilled;
    // Doomed attempts sit on a dead node whose slot ledger is void.
    if (!a->doomed) ++s_.slave(rec.exec_node).free_map_slots;
    for (const net::FlowId f : a->flows) s_.net.cancel(f);
    if (a->read != 0) s_.fetch.cancel_read(a->read);
    s_.map_attempts.erase(record_idx);
  }
  for (std::size_t r = 0; r < j.reduces.size(); ++r) {
    ReduceTaskState& rt = j.reduces[r];
    if (!rt.assigned) continue;
    ReduceTaskRecord& rec =
        s_.result.reduce_tasks[static_cast<std::size_t>(rt.record)];
    if (rec.finish_time >= 0.0) continue;
    rec.finish_time = s_.sim.now();
    rec.outcome = AttemptOutcome::kKilled;
    rt.epoch.bump();  // neutralizes pending completion / fetch events
    rt.inflight_for_each(
        [this](const InflightFetch& f) { s_.net.cancel(f.flow); });
    rt.inflight_clear();
    if (!rt.doomed) ++s_.slave(rt.node).free_reduce_slots;
  }
  // The job leaves the FIFO queue as failed; no completion hook fires.
  j.finished = true;
  j.metrics.failed = true;
  j.metrics.finish_time = s_.sim.now();
  ++s_.jobs_done;
  s_.retire_job(job_id);
}

void FaultSupervisor::note_attempt_failure(NodeId node) {
  if (s_.cfg.fault.blacklist_threshold <= 0) return;
  SlaveState& s = s_.slave(node);
  if (!s.alive || !s.heartbeating || s.blacklisted) return;
  if (++s.recent_failures < s_.cfg.fault.blacklist_threshold) return;
  s.blacklisted = true;
  ++s_.result.blacklist_events;
  const util::Epoch::Ticket inc = s.incarnation.ticket();
  s_.sim.schedule_in(s_.cfg.fault.blacklist_duration, [this, node, inc] {
    SlaveState& sl = s_.slave(node);
    if (!sl.incarnation.valid(inc) || !sl.blacklisted) return;
    sl.blacklisted = false;
    sl.recent_failures = 0;
  });
}

void FaultSupervisor::kill_fetches_from(NodeId node) {
  // Degraded reads are not touched here: the fetch supervisor retargets
  // them itself (FetchSupervisor::on_node_failed).
  for (const int record_idx : s_.sorted_attempt_records()) {
    MapAttempt* found = s_.map_attempts.find(record_idx);
    if (found == nullptr) continue;
    MapAttempt& a = *found;
    if (a.doomed || a.flows.empty()) continue;  // dead, or input landed
    MapTaskRecord& rec =
        s_.result.map_tasks[static_cast<std::size_t>(record_idx)];
    if (rec.exec_node == node) continue;  // the compute-death path owns it
    if (rec.source_node != node) continue;
    // Rack-local / remote input fetch from the dead node: the attempt is
    // killed and its task requeued immediately (no transient-failure charge
    // — nothing is wrong with the executing slave).
    for (const net::FlowId f : a.flows) s_.net.cancel(f);
    a.flows.clear();
    const bool backup = a.backup;
    const int map_idx = a.map_idx;
    JobState& j = s_.job(a.job);
    MapTaskState& t = j.maps[static_cast<std::size_t>(map_idx)];
    rec.finish_time = s_.sim.now();
    rec.winner = false;
    rec.outcome = AttemptOutcome::kKilled;
    ++s_.slave(rec.exec_node).free_map_slots;
    s_.map_attempts.erase(record_idx);
    if (j.finished) continue;
    if (t.done || backup) {
      if (backup) t.has_backup = false;
      continue;
    }
    map_->unlaunch_map(j, t);
    requeue_map_task(j, map_idx);
  }
}

}  // namespace dfs::mapreduce
