#include "dfs/mapreduce/shuffle_phase.h"

#include <cassert>

#include "dfs/mapreduce/fault_supervisor.h"

namespace dfs::mapreduce {

void ShufflePhase::assign_reduce_tasks(NodeId s) {
  SlaveState& sl = s_.slave(s);
  if (sl.blacklisted || s_.jobs_with_unassigned_reduces == 0) return;
  // Direct walk of the active index is safe: nothing below finishes or
  // aborts a job synchronously (fetch completions arrive as later events).
  for (std::size_t ji = 0;
       ji < s_.active_jobs.size() && sl.free_reduce_slots > 0; ++ji) {
    JobState& j = s_.job(s_.active_jobs[ji]);
    while (sl.free_reduce_slots > 0 &&
           j.reduces_assigned < j.spec.num_reducers) {
      // First unassigned reduce task. Without failures tasks are assigned in
      // index order, so this is the scan-free `reduces_assigned` of old; a
      // reset task (its node died) reopens a hole the scan finds first.
      int r = -1;
      for (int cand = 0; cand < j.spec.num_reducers; ++cand) {
        if (!j.reduces[static_cast<std::size_t>(cand)].assigned) {
          r = cand;
          break;
        }
      }
      assert(r >= 0);  // reduces_assigned < num_reducers guarantees a hole
      ReduceTaskState& rt = j.reduces[static_cast<std::size_t>(r)];
      rt.assigned = true;
      rt.node = s;
      rt.doomed = false;
      s_.count_reduce_assign(j);
      --sl.free_reduce_slots;

      ReduceTaskRecord rec;
      rec.id = static_cast<TaskId>(s_.result.reduce_tasks.size());
      rec.job = j.spec.id;
      rec.attempt = rt.attempts++;
      rec.exec_node = s;
      rec.assign_time = s_.sim.now();
      rt.record = static_cast<int>(s_.result.reduce_tasks.size());
      s_.result.reduce_tasks.push_back(rec);
      rt.fetched.assign(static_cast<std::size_t>(j.total_m), 0);
      rt.partitions_fetched = 0;

      // Pull the partitions of every map that has already finished.
      for (const int map_record : j.completed_map_records) {
        start_partition_fetch(j, r, map_record);
      }
    }
  }
}

util::Bytes ShufflePhase::partition_bytes(const JobState& j) const {
  if (j.spec.num_reducers == 0) return 0.0;
  return s_.cfg.block_size * j.spec.shuffle_ratio /
         static_cast<double>(j.spec.num_reducers);
}

void ShufflePhase::start_partition_fetch(JobState& j, int reduce_idx,
                                         int map_record_idx) {
  const core::JobId job_id = s_.id_of(j);
  const MapTaskRecord& map_rec =
      s_.result.map_tasks[static_cast<std::size_t>(map_record_idx)];
  const NodeId src = map_rec.exec_node;
  const int map_idx = map_rec.map_index;
  ReduceTaskState& rt = j.reduces[static_cast<std::size_t>(reduce_idx)];
  const NodeId dst = rt.node;
  const util::Epoch::Ticket epoch = rt.epoch.ticket();
  const net::FlowId flow = s_.net.transfer(
      src, dst, partition_bytes(j),
      [this, job_id, reduce_idx, map_idx, epoch] {
        on_partition_fetched(job_id, reduce_idx, map_idx, epoch);
      });
  rt.inflight_add(InflightFetch{flow, map_idx, src});
}

void ShufflePhase::on_partition_fetched(core::JobId job_id, int reduce_idx,
                                        int map_idx,
                                        util::Epoch::Ticket epoch) {
  JobState& j = s_.job(job_id);
  ReduceTaskState& rt = j.reduces[static_cast<std::size_t>(reduce_idx)];
  if (!rt.epoch.valid(epoch) || rt.doomed) return;  // attempt was torn down
  rt.inflight_remove(map_idx);
  if (rt.fetched[static_cast<std::size_t>(map_idx)]) return;
  rt.fetched[static_cast<std::size_t>(map_idx)] = 1;
  ++rt.partitions_fetched;
  if (rt.partitions_fetched == j.total_m) {
    s_.result.reduce_tasks[static_cast<std::size_t>(rt.record)]
        .shuffle_done_time = s_.sim.now();
    maybe_start_reduce_processing(j, reduce_idx);
  }
}

void ShufflePhase::maybe_start_reduce_processing(JobState& j, int reduce_idx) {
  ReduceTaskState& rt = j.reduces[static_cast<std::size_t>(reduce_idx)];
  if (rt.processing || rt.doomed || rt.partitions_fetched != j.total_m ||
      j.maps_done != j.total_m) {
    return;
  }
  rt.processing = true;
  ReduceTaskRecord& rec =
      s_.result.reduce_tasks[static_cast<std::size_t>(rt.record)];
  rec.process_start_time = s_.sim.now();
  const util::Seconds duration =
      j.rng.normal(j.spec.reduce_time.mean, j.spec.reduce_time.stddev) *
      s_.cfg.time_scale(rt.node);
  const core::JobId job_id = s_.id_of(j);
  const util::Epoch::Ticket epoch = rt.epoch.ticket();
  if (s_.cfg.fault.injection_enabled() && s_.cfg.fault.node_flaky(rt.node) &&
      j.rng.uniform(0.0, 1.0) < s_.cfg.fault.attempt_failure_prob) {
    const double frac = j.rng.uniform(0.0, 1.0);
    s_.sim.schedule_in(duration * frac, [this, job_id, reduce_idx, epoch] {
      fault_->on_reduce_attempt_failed(job_id, reduce_idx, epoch);
    });
    return;
  }
  s_.sim.schedule_in(duration, [this, job_id, reduce_idx, epoch] {
    on_reduce_complete(job_id, reduce_idx, epoch);
  });
}

void ShufflePhase::on_reduce_complete(core::JobId job_id, int reduce_idx,
                                      util::Epoch::Ticket epoch) {
  JobState& j = s_.job(job_id);
  ReduceTaskState& rt = j.reduces[static_cast<std::size_t>(reduce_idx)];
  if (!rt.epoch.valid(epoch) || rt.doomed) return;  // attempt was torn down
  ReduceTaskRecord& rec =
      s_.result.reduce_tasks[static_cast<std::size_t>(rt.record)];
  rec.finish_time = s_.sim.now();
  ++s_.slave(rt.node).free_reduce_slots;
  ++j.reduces_done;
  if (s_.hooks->on_reduce_finish) s_.hooks->on_reduce_finish(rec);
  s_.maybe_finish_job(j);
}

void ShufflePhase::reset_reduce_attempt(JobState& j, int reduce_idx) {
  ReduceTaskState& rt = j.reduces[static_cast<std::size_t>(reduce_idx)];
  rt.epoch.bump();
  rt.doomed = false;
  rt.assigned = false;
  rt.node = -1;
  rt.partitions_fetched = 0;
  rt.fetched.clear();
  rt.processing = false;
  rt.record = -1;
  rt.inflight_for_each([this](const InflightFetch& f) { s_.net.cancel(f.flow); });
  rt.inflight_clear();
  s_.count_reduce_unassign(j);
}

}  // namespace dfs::mapreduce
