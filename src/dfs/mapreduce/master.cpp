#include "dfs/mapreduce/master.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

namespace dfs::mapreduce {

namespace {

/// The fetch supervisor's stream. With a hedge or straggler knob set it is
/// forked from the master's stream (knob-on traces depend on that fork).
/// With every knob off it only ever draws for a fallback replan after a
/// source dies, and the master's stream must not move: heartbeat phases and
/// every job's Rng come from it, so a fork here would shift every run's
/// trace; the supervisor takes a peek_fork that leaves it in place.
util::Rng supervisor_rng(const ClusterConfig& config, util::Rng& master) {
  return config.fetch_supervised() ? master.fork() : master.peek_fork();
}

}  // namespace

Master::Master(sim::Simulator& simulator, net::Network& network,
               const ClusterConfig& config,
               const storage::FailureScenario& failure,
               core::Scheduler& scheduler, util::Rng& rng,
               storage::SourceSelection source_selection,
               storage::RecoveryCostModel cost_model)
    : state_(simulator, network, config, failure,
             supervisor_rng(config, rng)),
      map_(state_),
      shuffle_(state_),
      fault_(state_),
      scheduler_(scheduler),
      rng_(rng),
      source_selection_(source_selection),
      cost_model_(cost_model) {
  state_.hooks = &hooks;
  map_.wire(shuffle_, fault_);
  shuffle_.wire(fault_);
  fault_.wire(map_, shuffle_);
  state_.slaves.resize(static_cast<std::size_t>(config.topology.num_nodes()));
  for (NodeId n = 0; n < config.topology.num_nodes(); ++n) {
    SlaveState& s = state_.slave(n);
    s.alive = !failure.is_failed(n);
    s.free_map_slots = config.map_slots_per_node;
    s.free_reduce_slots = config.reduce_slots_per_node;
  }
  state_.last_degraded_assign.assign(
      static_cast<std::size_t>(config.topology.num_racks()), kNeverAssigned);
}

void Master::submit(const JobInput& input) {
  if (started_ && !admission_open_) {
    throw std::logic_error(
        "submit after Master::start() requires online mode "
        "(set_admission_open) and an open admission window");
  }
  if (!input.layout || !input.code) {
    throw std::invalid_argument("JobInput needs a layout and a code");
  }
  if (input.layout->n() != input.code->n() ||
      input.layout->k() != input.code->k()) {
    throw std::invalid_argument("layout and code disagree on (n, k)");
  }
  JobState j;
  j.spec = input.spec;
  j.layout = input.layout;
  j.code = input.code;
  j.planner = std::make_unique<storage::DegradedReadPlanner>(
      *j.layout, state_.cfg.topology, *j.code, source_selection_,
      cost_model_);
  j.expected_degraded_cost = j.planner->expected_single_failure_blocks();
  j.rng = rng_.fork();
  j.metrics.id = j.spec.id;
  j.metrics.tenant = j.spec.tenant;
  j.metrics.submit_time = j.spec.submit_time;
  j.pending = PendingPools(state_.cfg.topology);
  j.reduces.resize(static_cast<std::size_t>(j.spec.num_reducers));
  state_.jobs.push_back(std::move(j));
  if (started_) {
    const std::size_t index = state_.jobs.size() - 1;
    state_.sim.schedule_at(
        std::max(state_.sim.now(), state_.jobs.back().spec.submit_time),
        [this, index] { activate_job(index); });
  }
}

void Master::activate_job(std::size_t index) {
  map_.activate_job(state_.jobs[index]);
}

void Master::start() {
  if (started_) throw std::logic_error("Master::start() called twice");
  started_ = true;
  for (std::size_t i = 0; i < state_.jobs.size(); ++i) {
    state_.sim.schedule_at(state_.jobs[i].spec.submit_time,
                           [this, i] { activate_job(i); });
  }
  for (NodeId n = 0; n < state_.cfg.topology.num_nodes(); ++n) {
    if (!state_.slave(n).alive) continue;
    start_heartbeat(n);
  }
}

void Master::start_heartbeat(NodeId n) {
  const util::Seconds phase = rng_.uniform(0.0, state_.cfg.heartbeat_interval);
  SlaveState& slave = state_.slave(n);
  slave.last_heartbeat = state_.sim.now();
  const util::Epoch::Ticket loop = slave.heartbeat_loop.bump();
  state_.sim.schedule_periodic(
      phase, state_.cfg.heartbeat_interval, [this, n, loop] {
        if (!admission_open_ && all_jobs_done()) return false;
        // Rearmed by on_node_repaired. A compute-failed slave stops
        // heartbeating immediately even though the master still believes it
        // alive.
        const SlaveState& sl = state_.slave(n);
        if (!sl.heartbeat_loop.valid(loop) || !sl.alive || !sl.heartbeating) {
          return false;
        }
        on_heartbeat(n);
        return true;
      });
}

void Master::on_heartbeat(NodeId s) {
  assert(state_.scheduling_indexes_consistent());
  state_.slave(s).last_heartbeat = state_.sim.now();
  scheduler_.on_heartbeat(*this, s);
  shuffle_.assign_reduce_tasks(s);
  if (state_.cfg.speculative_execution) map_.try_speculate(s);
}

// --- dynamic cluster health ----------------------------------------------------

void Master::on_node_failed(NodeId node) {
  SlaveState& s = state_.slave(node);
  if (!s.alive) return;
  s.alive = false;  // its heartbeat loop unregisters itself on the next fire
  for (const core::JobId id : state_.active_jobs) {
    map_.reclassify_after_failure(state_.job(id), node);
  }
  // A storage death reaches every in-flight read, fault layer or not:
  // degraded reads fall back to other sources inside the fetch supervisor,
  // and the plain input fetches the dead node served are killed.
  state_.fetch.on_node_failed(node);
  fault_.kill_fetches_from(node);
}

void Master::on_compute_failed(NodeId node) {
  fault_.on_compute_failed(node);
}

void Master::on_node_repaired(NodeId node) {
  SlaveState& s = state_.slave(node);
  const bool compute_died =
      state_.cfg.fault.compute_failures && !s.heartbeating;
  if (s.alive && !compute_died) return;
  if (compute_died) fault_.restore_compute(node);
  s.alive = true;
  for (const core::JobId id : state_.active_jobs) {
    map_.reclassify_after_repair(state_.job(id), node);
  }
  if (started_) start_heartbeat(node);
}

// --- SchedulerContext queries --------------------------------------------------

util::Seconds Master::now() const { return state_.sim.now(); }

const std::vector<core::JobId>& Master::running_jobs_ref() const {
  // Copied per call into a scratch buffer from the incrementally kept
  // runnable index: the heartbeat path hits this once per slave per
  // interval, so neither an allocation nor a walk over the active jobs
  // belongs here. The scratch arrives in FIFO (submission) order; an
  // installed admission policy reorders it in place before the scheduler
  // walks it.
  running_jobs_scratch_.assign(state_.runnable_jobs.begin(),
                               state_.runnable_jobs.end());
  if (admission_policy_ != nullptr) {
    admission_policy_->order(*this, running_jobs_scratch_);
  }
  return running_jobs_scratch_;
}

int Master::tenant_of(core::JobId id) const {
  return state_.job(id).spec.tenant;
}

int Master::free_map_slots(NodeId s) const {
  const SlaveState& sl = state_.slave(s);
  if (sl.blacklisted) return 0;  // fault layer: advertise no capacity
  return sl.free_map_slots;
}

bool Master::has_unassigned_local(core::JobId id, NodeId s) const {
  const JobState& j = state_.job(id);
  return j.pending.live_count(s) > 0 ||
         j.pending.in_rack(state_.cfg.topology.rack_of(s)) > 0;
}

bool Master::has_unassigned_remote(core::JobId id, NodeId s) const {
  const JobState& j = state_.job(id);
  return j.pending_nondegraded >
         j.pending.in_rack(state_.cfg.topology.rack_of(s));
}

bool Master::has_unassigned_degraded(core::JobId id) const {
  return state_.job(id).pending_degraded.live_count() > 0;
}

void Master::assign_local(core::JobId id, NodeId s) {
  // Assignments can launch a job's last map, dropping it from the runnable
  // set; debug views handed out before the mutation must go stale.
  invalidate_running_jobs();
  map_.assign_local(id, s);
}

void Master::assign_remote(core::JobId id, NodeId s) {
  invalidate_running_jobs();
  map_.assign_remote(id, s);
}

void Master::assign_degraded(core::JobId id, NodeId s) {
  invalidate_running_jobs();
  map_.assign_degraded(id, s);
}

int Master::degraded_affinity(core::JobId id, NodeId s) const {
  const JobState& j = state_.job(id);
  // Front of the pool, skipping entries whose task a repair already
  // reclassified or re-entered under a newer generation (const path: peek
  // past the stale prefix without popping; assign_degraded trims it).
  const int* front = j.pending_degraded.peek();
  if (front == nullptr) return 0;
  const storage::BlockId lost = j.maps[static_cast<std::size_t>(*front)].block;
  int count = 0;
  for (int b = 0; b < j.layout->n(); ++b) {
    if (b == lost.index) continue;
    const NodeId holder = j.layout->node_of(storage::BlockId{lost.stripe, b});
    if (holder == s && !state_.failure.is_failed(holder)) ++count;
  }
  return count;
}

long Master::launched_maps(core::JobId id) const { return state_.job(id).m; }

long Master::running_maps(core::JobId id) const {
  const JobState& j = state_.job(id);
  return j.m - j.maps_done;
}
long Master::total_maps(core::JobId id) const {
  return state_.job(id).total_m;
}
long Master::launched_degraded(core::JobId id) const {
  return state_.job(id).md;
}
long Master::total_degraded(core::JobId id) const {
  return state_.job(id).total_md;
}
double Master::launched_degraded_cost(core::JobId id) const {
  return state_.job(id).md_cost;
}
double Master::total_degraded_cost(core::JobId id) const {
  const JobState& j = state_.job(id);
  return static_cast<double>(j.total_md) * j.expected_degraded_cost;
}

util::Seconds Master::local_work_seconds(NodeId s) const {
  double work = 0.0;
  for (const core::JobId id : state_.active_jobs) {
    const JobState& j = state_.job(id);
    work += static_cast<double>(j.pending.live_count(s)) *
            j.spec.map_time.mean;
  }
  return work * state_.cfg.time_scale(s);
}

util::Seconds Master::mean_local_work_seconds() const {
  double sum = 0.0;
  int alive = 0;
  for (NodeId n = 0; n < state_.cfg.topology.num_nodes(); ++n) {
    if (!state_.slave(n).alive) continue;
    sum += local_work_seconds(n);
    ++alive;
  }
  return alive > 0 ? sum / alive : 0.0;
}

util::Seconds Master::time_since_last_degraded(RackId r) const {
  return state_.sim.now() -
         state_.last_degraded_assign[static_cast<std::size_t>(r)];
}

util::Seconds Master::mean_time_since_last_degraded() const {
  // Average over racks that can still run tasks: a fully-failed rack never
  // launches a degraded task, and letting its stale timer inflate E[t_r]
  // would pin the rack-awareness gate at its threshold and throttle
  // degraded launches cluster-wide (pathological under rack failures).
  double sum = 0.0;
  int alive_racks = 0;
  for (RackId r = 0; r < state_.cfg.topology.num_racks(); ++r) {
    bool alive = false;
    for (NodeId n : state_.cfg.topology.nodes_in_rack(r)) {
      if (state_.slave(n).alive) {
        alive = true;
        break;
      }
    }
    if (!alive) continue;
    sum += time_since_last_degraded(r);
    ++alive_racks;
  }
  return alive_racks > 0 ? sum / alive_racks : 0.0;
}

util::Seconds Master::degraded_read_threshold() const {
  const util::BytesPerSec w = state_.net.topology().num_racks() > 1
                                  ? state_.cfg.links.rack_down
                                  : util::kUnlimitedBandwidth;
  if (w == util::kUnlimitedBandwidth) return 0.0;
  // The first runnable job's; the index excludes aborted jobs (retired
  // with their planner released), whose recovery cost should not pin the
  // threshold anyway.
  if (state_.runnable_jobs.empty()) return 0.0;
  const JobState& j = state_.job(state_.runnable_jobs.front());
  return j.planner->expected_cross_rack_blocks() * state_.cfg.block_size / w;
}

RackId Master::rack_of(NodeId s) const {
  return state_.cfg.topology.rack_of(s);
}

RunResult Master::take_result() {
  state_.result.degraded_fetches = state_.fetch.take_fetch_records();
  state_.result.hedge = state_.fetch.stats();
  state_.result.jobs.clear();
  state_.result.jobs.reserve(state_.jobs.size());
  for (const JobState& j : state_.jobs) state_.result.jobs.push_back(j.metrics);
  state_.result.makespan = state_.sim.now();
  return std::move(state_.result);
}

}  // namespace dfs::mapreduce
