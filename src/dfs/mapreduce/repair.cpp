#include "dfs/mapreduce/repair.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dfs::mapreduce {

RepairProcess::RepairProcess(sim::Simulator& simulator, net::Network& network,
                             const storage::StorageLayout& layout,
                             const ec::ErasureCode& code,
                             const storage::FailureScenario& failure,
                             Options options, util::Rng rng)
    : sim_(simulator),
      net_(network),
      layout_(layout),
      failure_(failure),
      planner_(layout, network.topology(), code, options.selection),
      options_(options),
      rng_(rng),
      fetch_(simulator, network, failure, fetch_cfg_, rng.peek_fork()) {
  if (options_.concurrency < 1) {
    throw std::invalid_argument("repair concurrency must be >= 1");
  }
  fetch_cfg_.block_size = options_.block_size;
}

RepairProcess::Stats RepairProcess::stats() const {
  Stats s = stats_;
  s.replans = static_cast<int>(fetch_.stats().fallback_replans);
  return s;
}

void RepairProcess::start() {
  std::vector<storage::BlockId> blocks;
  for (const net::NodeId node : failure_.failed_nodes()) {
    for (const storage::BlockId block : layout_.blocks_on_node(node)) {
      blocks.push_back(block);
    }
  }
  start(std::move(blocks));
}

void RepairProcess::start(std::vector<storage::BlockId> blocks) {
  assert(!started_);
  started_ = true;
  pending_.insert(pending_.end(), blocks.begin(), blocks.end());
  if (pending_.empty()) {
    stats_.finish_time = sim_.now();
    if (on_complete) on_complete();
    return;
  }
  sim_.schedule_at(std::max(options_.start_time, sim_.now()), [this] {
    for (int i = 0; i < options_.concurrency; ++i) launch_next();
  });
}

void RepairProcess::launch_next() {
  if (pending_.empty()) {
    if (rebuilds_.empty() && stats_.finish_time < 0.0) {
      stats_.finish_time = sim_.now();
      if (on_complete) on_complete();
    }
    return;
  }
  const storage::BlockId block = pending_.front();
  pending_.pop_front();
  repair_block(block);
}

void RepairProcess::repair_block(storage::BlockId block) {
  // Rebuild on a random surviving node; read the plan's source blocks there
  // in parallel, decode (free in the timing model), and keep the result.
  net::NodeId target;
  do {
    target = rng_.uniform_int(0, net_.topology().num_nodes() - 1);
  } while (failure_.is_failed(target));

  // With no extras, plan_hedged makes exactly plan()'s draws on rng_.
  auto plan = planner_.plan_hedged(block, target, failure_, rng_, 0);
  if (!plan) {
    ++stats_.blocks_unrecoverable;
    // Move on so one dead stripe cannot wedge the whole repair queue.
    sim_.schedule_in(0.0, [this] { launch_next(); });
    return;
  }
  const int id = next_rebuild_id_++;
  Rebuild& rebuild = rebuilds_[id];
  rebuild.block = block;
  rebuild.target = target;
  rebuild.read = fetch_.start_read(
      planner_, std::move(*plan), target, [this, id](ReadOutcome out) {
        rebuilds_.erase(id);
        // Nothing reads the per-fetch records, and the process lives as
        // long as the run: drop them as each rebuild finishes.
        fetch_.take_fetch_records();
        ++(out.ok ? stats_.blocks_repaired : stats_.blocks_unrecoverable);
        launch_next();
      });
}

void RepairProcess::on_node_failed(net::NodeId node) {
  // Rebuilds onto the dead node first, in start order: requeue each block
  // for a fresh target. Replacements start on live targets, after `it`.
  for (auto it = rebuilds_.begin(); it != rebuilds_.end();) {
    if (it->second.target != node) {
      ++it;
      continue;
    }
    fetch_.cancel_read(it->second.read);
    pending_.push_back(it->second.block);
    it = rebuilds_.erase(it);
    ++stats_.blocks_requeued;
    launch_next();
  }
  // Reads from the dead node fall back to the surviving stripe blocks.
  fetch_.on_node_failed(node);
}

}  // namespace dfs::mapreduce
