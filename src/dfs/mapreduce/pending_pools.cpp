#include "dfs/mapreduce/pending_pools.h"

namespace dfs::mapreduce {

namespace {

/// Size of a tournament tree over `racks` leaves, padded to a power of two.
std::size_t leaf_count(int racks) {
  std::size_t leaves = 1;
  while (leaves < static_cast<std::size_t>(racks)) leaves *= 2;
  return leaves;
}

}  // namespace

PendingPools::PendingPools(const net::Topology& topology)
    : topology_(&topology),
      by_node_(static_cast<std::size_t>(topology.num_nodes())),
      by_rack_(static_cast<std::size_t>(topology.num_racks()), 0),
      best_(static_cast<std::size_t>(topology.num_racks())),
      tree_(2 * leaf_count(topology.num_racks())),
      leaves_(leaf_count(topology.num_racks())) {}

std::optional<int> PendingPools::pop(NodeId node) {
  const std::optional<int> task = by_node_[static_cast<std::size_t>(node)].pop();
  if (task) shrank(node);
  return task;
}

bool PendingPools::invalidate(NodeId node, int task) {
  if (!by_node_[static_cast<std::size_t>(node)].invalidate(task)) return false;
  shrank(node);
  return true;
}

void PendingPools::repush(NodeId node, int task) {
  by_node_[static_cast<std::size_t>(node)].repush(task);
  grew(node);
}

void PendingPools::grew(NodeId node) {
  const RackId rack = topology_->rack_of(node);
  RackBest& best = best_[static_cast<std::size_t>(rack)];
  if (best.stale) return;
  const long len = live_count(node);
  if (len > best.len || (len == best.len && node < best.node)) {
    best.node = node;
    best.len = len;
    mark_dirty(rack);
  }
}

void PendingPools::shrank(NodeId node) {
  // Another node's shorter queue cannot change the rack's maximum or its
  // lowest-id holder; only the cached best itself going down can.
  const RackId rack = topology_->rack_of(node);
  RackBest& best = best_[static_cast<std::size_t>(rack)];
  if (best.node == node) {
    best.stale = true;
    mark_dirty(rack);
  }
}

void PendingPools::mark_dirty(RackId rack) {
  RackBest& best = best_[static_cast<std::size_t>(rack)];
  if (best.dirty) return;
  best.dirty = true;
  dirty_.push_back(rack);
}

const PendingPools::RackBest& PendingPools::refresh(RackId rack) {
  RackBest& best = best_[static_cast<std::size_t>(rack)];
  if (best.stale) {
    best.node = -1;
    best.len = 0;
    best.stale = false;
    for (const NodeId node : topology_->nodes_in_rack(rack)) {
      const long len = live_count(node);
      if (len > best.len || (len == best.len && len > 0 && node < best.node)) {
        best.node = node;
        best.len = len;
      }
    }
  }
  return best;
}

void PendingPools::set_leaf(RackId rack, const RackBest& best) {
  std::size_t i = leaves_ + static_cast<std::size_t>(rack);
  tree_[i] = Entry{best.len, best.node};
  for (i /= 2; i >= 1; i /= 2) {
    const Entry& left = tree_[2 * i];
    const Entry& right = tree_[2 * i + 1];
    tree_[i] = beats(right, left) ? right : left;
  }
}

NodeId PendingPools::best_in_rack(RackId rack) { return refresh(rack).node; }

NodeId PendingPools::best_remote(RackId own_rack) {
  for (const RackId rack : dirty_) {
    best_[static_cast<std::size_t>(rack)].dirty = false;
    set_leaf(rack, refresh(rack));
  }
  dirty_.clear();
  // The better of every subtree hanging off the own rack's root path.
  Entry best;
  for (std::size_t i = leaves_ + static_cast<std::size_t>(own_rack); i > 1;
       i /= 2) {
    if (beats(tree_[i ^ 1], best)) best = tree_[i ^ 1];
  }
  return best.len > 0 ? best.node : -1;
}

}  // namespace dfs::mapreduce
