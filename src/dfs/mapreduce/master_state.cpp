#include "dfs/mapreduce/master_state.h"

#include <algorithm>

namespace dfs::mapreduce {

namespace {

bool in_index(const JobState& j) { return j.active && !j.finished; }

void erase_sorted(std::vector<core::JobId>& ids, core::JobId id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) ids.erase(it);
}

}  // namespace

void MasterState::maybe_finish_job(JobState& j) {
  if (j.finished || j.maps_done != j.total_m ||
      j.reduces_done != j.spec.num_reducers) {
    return;
  }
  j.finished = true;
  j.metrics.finish_time = sim.now();
  ++jobs_done;
  retire_job(id_of(j));
  if (hooks->on_job_finish) hooks->on_job_finish(j.metrics);
}

void MasterState::index_activated_job(const JobState& j) {
  const core::JobId id = id_of(j);
  assert(in_index(j) && j.m == 0 && j.reduces_assigned == 0);
  assert(active_jobs.empty() || active_jobs.back() < id);
  active_jobs.push_back(id);
  if (j.total_m > 0) runnable_jobs.push_back(id);
  if (j.spec.num_reducers > 0) ++jobs_with_unassigned_reduces;
}

void MasterState::retire_job(core::JobId id) {
  JobState& j = job(id);
  assert(j.finished);
  erase_sorted(active_jobs, id);
  if (j.m < j.total_m) erase_sorted(runnable_jobs, id);
  if (j.reduces_assigned < j.spec.num_reducers) --jobs_with_unassigned_reduces;
  j.release_scheduling_state();
}

void MasterState::count_map_launch(JobState& j) {
  ++j.m;
  if (j.m == j.total_m && in_index(j)) erase_sorted(runnable_jobs, id_of(j));
}

void MasterState::count_map_unlaunch(JobState& j) {
  if (j.m == j.total_m && in_index(j)) {
    const core::JobId id = id_of(j);
    runnable_jobs.insert(
        std::lower_bound(runnable_jobs.begin(), runnable_jobs.end(), id), id);
  }
  --j.m;
}

void MasterState::count_reduce_assign(JobState& j) {
  ++j.reduces_assigned;
  if (j.reduces_assigned == j.spec.num_reducers && in_index(j)) {
    --jobs_with_unassigned_reduces;
  }
}

void MasterState::count_reduce_unassign(JobState& j) {
  if (j.reduces_assigned == j.spec.num_reducers && in_index(j)) {
    ++jobs_with_unassigned_reduces;
  }
  --j.reduces_assigned;
}

bool MasterState::scheduling_indexes_consistent() const {
  std::vector<core::JobId> runnable;
  long unassigned_reduces = 0;
  for (const core::JobId id : active_jobs) {
    const JobState& j = job(id);
    if (j.m < j.total_m) runnable.push_back(id);
    if (j.reduces_assigned < j.spec.num_reducers) ++unassigned_reduces;
  }
  return runnable == runnable_jobs &&
         unassigned_reduces == jobs_with_unassigned_reduces;
}

}  // namespace dfs::mapreduce
