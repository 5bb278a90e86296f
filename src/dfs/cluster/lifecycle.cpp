#include "dfs/cluster/lifecycle.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dfs::cluster {

LifecycleDriver::LifecycleDriver(sim::Simulator& simulator,
                                 net::Network& network,
                                 mapreduce::Master& master,
                                 storage::FailureScenario& failure,
                                 const storage::StorageLayout& archive_layout,
                                 const ec::ErasureCode& archive_code,
                                 LifecycleOptions options,
                                 util::Seconds horizon, util::Bytes block_size,
                                 bool compute_failures, util::Rng rng)
    : sim_(simulator),
      net_(network),
      master_(master),
      failure_(failure),
      archive_layout_(archive_layout),
      archive_code_(archive_code),
      options_(options),
      horizon_(horizon),
      block_size_(block_size),
      compute_failures_(compute_failures),
      rng_(rng) {
  if (options_.node_mttf_hours <= 0.0) {
    throw std::invalid_argument("node_mttf_hours must be > 0");
  }
  if (options_.max_concurrent_failed < 1) {
    throw std::invalid_argument("max_concurrent_failed must be >= 1");
  }
  clocks_.resize(static_cast<std::size_t>(net_.topology().num_nodes()));
}

void LifecycleDriver::start() {
  for (net::NodeId n = 0; n < net_.topology().num_nodes(); ++n) {
    if (!failure_.is_failed(n)) arm_failure_clock(n);
  }
  sim_.schedule_at(horizon_, [this] { stop_at_horizon(); });
}

void LifecycleDriver::arm_failure_clock(net::NodeId node) {
  const util::Seconds ttf =
      rng_.exponential(options_.node_mttf_hours * 3600.0);
  if (sim_.now() + ttf > horizon_) return;  // never fires in-window
  clocks_[static_cast<std::size_t>(node)] =
      sim_.schedule_in(ttf, [this, node] { on_failure_clock(node); });
}

void LifecycleDriver::on_failure_clock(net::NodeId node) {
  clocks_[static_cast<std::size_t>(node)] = sim::EventId{};
  if (stopped_ || failure_.is_failed(node)) return;
  const int failed_now = static_cast<int>(failure_.failed_nodes().size());
  const bool rack =
      rng_.uniform(0.0, 1.0) < options_.rack_failure_fraction;
  std::vector<net::NodeId> victims;
  if (rack) {
    // A whole rack exceeds any per-node cap, so it gets its own guard: fire
    // only into an otherwise healthy cluster. The §III placement rule keeps
    // one rack's share of a stripe within the code's tolerance (n - k), so
    // a lone rack failure stays recoverable where rack-plus-node might not.
    if (failed_now > 0) {
      arm_failure_clock(node);  // redraw instead of firing
      return;
    }
    for (const net::NodeId peer :
         net_.topology().nodes_in_rack(net_.topology().rack_of(node))) {
      victims.push_back(peer);
    }
  } else {
    if (failed_now + 1 > options_.max_concurrent_failed) {
      arm_failure_clock(node);  // over the cap: redraw instead of firing
      return;
    }
    victims.push_back(node);
  }
  trigger_failure(std::move(victims), rack);
}

void LifecycleDriver::trigger_failure(std::vector<net::NodeId> nodes,
                                      bool rack) {
  auto active = std::make_unique<ActiveEvent>();
  active->event.fail_time = sim_.now();
  active->event.nodes = nodes;
  active->event.rack = rack;

  std::vector<storage::BlockId> lost_blocks;
  for (const net::NodeId n : nodes) {
    sim_.cancel(clocks_[static_cast<std::size_t>(n)]);
    clocks_[static_cast<std::size_t>(n)] = sim::EventId{};
    failure_.fail(n);
    master_.on_node_failed(n);
    if (compute_failures_) master_.on_compute_failed(n);
    // Other events' in-flight repairs may be reading from or rebuilding
    // onto the newly-dead node.
    for (const auto& prior : events_) {
      if (!prior->repair->done()) prior->repair->on_node_failed(n);
    }
    const auto blocks = archive_layout_.blocks_on_node(n);
    lost_blocks.insert(lost_blocks.end(), blocks.begin(), blocks.end());
  }

  mapreduce::RepairProcess::Options ropts;
  ropts.concurrency = options_.repair_concurrency;
  ropts.block_size = block_size_;
  ropts.start_time =
      sim_.now() + rng_.exponential(options_.mean_repair_delay);
  active->event.repair_start = ropts.start_time;
  active->repair = std::make_unique<mapreduce::RepairProcess>(
      sim_, net_, archive_layout_, archive_code_, failure_, ropts,
      rng_.fork());

  const std::size_t index = events_.size();
  active->repair->on_complete = [this, index] { on_repair_complete(index); };
  events_.push_back(std::move(active));
  ++active_failures_;
  events_.back()->repair->start(std::move(lost_blocks));
}

void LifecycleDriver::on_repair_complete(std::size_t event_index) {
  ActiveEvent& active = *events_[event_index];
  active.event.restore_time = sim_.now();
  assert(active.event.fail_time <= active.event.repair_start &&
         active.event.repair_start <= active.event.restore_time);
  active.event.blocks_repaired = active.repair->stats().blocks_repaired;
  active.event.blocks_unrecoverable =
      active.repair->stats().blocks_unrecoverable;
  --active_failures_;
  for (const net::NodeId n : active.event.nodes) {
    failure_.restore(n);
    master_.on_node_repaired(n);
    if (!stopped_) arm_failure_clock(n);
  }
}

void LifecycleDriver::stop_at_horizon() {
  stopped_ = true;
  for (auto& clock : clocks_) {
    sim_.cancel(clock);
    clock = sim::EventId{};
  }
}

int LifecycleDriver::repair_backlog() const {
  int backlog = 0;
  for (const auto& active : events_) {
    if (!active->repair->done()) backlog += active->repair->backlog();
  }
  return backlog;
}

int LifecycleDriver::active_failures() const { return active_failures_; }

int LifecycleDriver::failed_node_count() const {
  int count = 0;
  for (const auto& active : events_) {
    if (active->event.restore_time < 0.0) {
      count += static_cast<int>(active->event.nodes.size());
    }
  }
  return count;
}

mapreduce::RepairProcess::Stats LifecycleDriver::repair_totals() const {
  mapreduce::RepairProcess::Stats total;
  for (const auto& active : events_) {
    const mapreduce::RepairProcess::Stats s = active->repair->stats();
    total.blocks_repaired += s.blocks_repaired;
    total.blocks_unrecoverable += s.blocks_unrecoverable;
    total.blocks_requeued += s.blocks_requeued;
    total.replans += s.replans;
  }
  return total;
}

std::vector<FailureEvent> LifecycleDriver::events() const {
  std::vector<FailureEvent> out;
  out.reserve(events_.size());
  for (const auto& active : events_) out.push_back(active->event);
  return out;
}

}  // namespace dfs::cluster
