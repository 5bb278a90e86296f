#pragma once

#include <optional>
#include <vector>

#include "dfs/mapreduce/types.h"
#include "dfs/util/stale_queue.h"

namespace dfs::mapreduce {

/// One job's pending (unassigned, non-degraded) map tasks, indexed for the
/// three assignment classes: a per-node queue of the tasks with a readable
/// copy there (node-local), a per-rack count of the tasks with a copy in the
/// rack (rack-local), and a per-rack cache of the rack's longest live queue
/// (remote and rack-local stealing).
///
/// Every queue mutation goes through this type, so no caller can change a
/// queue and forget its rack's cache. The cache holds, per rack, the node
/// with the longest live queue, lowest id on ties. A growing queue updates
/// it in O(1); a shrinking queue only marks it stale when the shrinking node
/// was the cached best, and a stale rack is rescanned on its next query.
///
/// A tournament tree over the racks' cached bests answers `best_remote`.
/// Racks whose cache changed or went stale since the last `best_remote` are
/// refreshed and their leaves replayed at the next one; the pick outside the
/// caller's rack then combines the siblings on its leaf's path to the root,
/// O(log racks). It returns exactly what the all-node scan returned: the
/// lowest-id node with the longest live queue outside the caller's rack.
class PendingPools {
 public:
  PendingPools() = default;
  explicit PendingPools(const net::Topology& topology);

  /// Exact number of pending tasks queued at `node`.
  long live_count(NodeId node) const {
    return by_node_[static_cast<std::size_t>(node)].live_count();
  }
  /// Pops the next pending task queued at `node` (see util::StaleQueue).
  std::optional<int> pop(NodeId node);
  /// Retires `task` from `node`'s queue; false if it was not live there.
  bool invalidate(NodeId node, int task);
  /// (Re-)queues `task` at `node`, reviving a surviving entry in place.
  void repush(NodeId node, int task);

  /// Pending tasks with a readable copy somewhere in `rack`.
  int in_rack(RackId rack) const {
    return by_rack_[static_cast<std::size_t>(rack)];
  }
  void add_to_rack(RackId rack) { ++by_rack_[static_cast<std::size_t>(rack)]; }
  void remove_from_rack(RackId rack) {
    --by_rack_[static_cast<std::size_t>(rack)];
  }

  /// The node of `rack` with the longest live queue, lowest id on ties;
  /// -1 if every queue in the rack is empty.
  NodeId best_in_rack(RackId rack);
  /// The node outside `own_rack` with the longest live queue, lowest id on
  /// ties; -1 if every such queue is empty.
  NodeId best_remote(RackId own_rack);

  /// Frees every pool (the job can never schedule again).
  void release() { *this = PendingPools(); }

 private:
  struct RackBest {
    NodeId node = -1;
    long len = 0;
    bool stale = false;
    bool dirty = false;  ///< listed in dirty_: its leaf may be out of date
  };
  /// A tournament-tree cell: the better of its subtree's leaves.
  struct Entry {
    long len = 0;
    NodeId node = -1;
  };
  /// Tournament order: the longer queue, then the lower node id.
  static bool beats(const Entry& a, const Entry& b) {
    return a.len > b.len || (a.len == b.len && a.node < b.node);
  }

  void grew(NodeId node);
  void shrank(NodeId node);
  void mark_dirty(RackId rack);
  const RackBest& refresh(RackId rack);
  void set_leaf(RackId rack, const RackBest& best);

  const net::Topology* topology_ = nullptr;
  std::vector<util::StaleQueue<int>> by_node_;
  std::vector<int> by_rack_;
  std::vector<RackBest> best_;  ///< per rack
  /// Heap-ordered tree: cell i has children 2i and 2i+1, and rack r's leaf
  /// is cell leaves_ + r (leaves_ a power of two, padding leaves empty).
  std::vector<Entry> tree_;
  std::size_t leaves_ = 0;
  std::vector<RackId> dirty_;  ///< racks to replay at the next best_remote
};

}  // namespace dfs::mapreduce
