#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "dfs/mapreduce/fetch_supervisor.h"
#include "dfs/net/network.h"
#include "dfs/sim/simulator.h"
#include "dfs/storage/degraded.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"
#include "dfs/util/rng.h"

namespace dfs::mapreduce {

/// Background reconstruction of the blocks lost to a failure (what
/// HDFS-RAID's RaidNode does): while MapReduce keeps running, every lost
/// block — native and parity — is rebuilt on a surviving node by reading k
/// surviving blocks of its stripe. Repairs proceed `concurrency` at a time
/// and share the same flow-level network as the job's traffic, so this
/// models the paper's real-world follow-on question: does degraded-first
/// scheduling still help while recovery traffic is in flight?
///
/// The process owns the queue, the choice of rebuild target and the
/// concurrency; each block's read runs through a FetchSupervisor it owns,
/// the same supervised path degraded map reads take. Its supervisor keeps
/// every hedge/fetch/straggler knob at its default, so repair reads are
/// plain fetches, and it is seeded with a peek_fork so the target and plan
/// draws on the repair's own Rng stay put.
class RepairProcess {
 public:
  struct Options {
    int concurrency = 1;           ///< simultaneous block repairs
    util::Seconds start_time = 0;  ///< when the repair daemon kicks in
    util::Bytes block_size = util::mebibytes(128);
    storage::SourceSelection selection = storage::SourceSelection::kRandom;
  };

  struct Stats {
    int blocks_repaired = 0;
    int blocks_unrecoverable = 0;
    int blocks_requeued = 0;  ///< repair target died mid-rebuild; retried
    int replans = 0;  ///< the supervisor's fallback replans (source died)
    util::Seconds finish_time = -1.0;  ///< when the last repair completed
  };

  RepairProcess(sim::Simulator& simulator, net::Network& network,
                const storage::StorageLayout& layout,
                const ec::ErasureCode& code,
                const storage::FailureScenario& failure, Options options,
                util::Rng rng);
  // Callbacks hold `this`, and the supervisor holds fetch_cfg_.
  RepairProcess(const RepairProcess&) = delete;
  RepairProcess& operator=(const RepairProcess&) = delete;

  /// Queues every lost block and schedules the first repairs. Call before
  /// Simulator::run().
  void start();

  /// Queues exactly `blocks` instead of enumerating the failure's nodes —
  /// the cluster lifecycle driver repairs one failure event at a time while
  /// the shared FailureScenario may already list other, separately-repaired
  /// nodes. May be called mid-run; repairs begin at options.start_time (or
  /// immediately if that time has passed).
  void start(std::vector<storage::BlockId> blocks);

  Stats stats() const;
  bool done() const {
    return started_ && pending_.empty() && rebuilds_.empty();
  }
  /// Blocks queued or being rebuilt right now (the repair backlog).
  int backlog() const {
    return static_cast<int>(pending_.size() + rebuilds_.size());
  }

  /// Invoked when the last block has been rebuilt, or at the start time when
  /// there is nothing to rebuild.
  std::function<void()> on_complete;

  /// `node`'s storage just failed. Rebuilds ONTO it are abandoned and their
  /// blocks requeued; reads FROM it fall back to other stripe blocks inside
  /// the supervisor (or count the block unrecoverable when none is left).
  void on_node_failed(net::NodeId node);

 private:
  /// One block rebuild in flight. rebuilds_ keys it by a private id, in
  /// start order: the done callback needs the key before start_read returns
  /// the ReadId.
  struct Rebuild {
    storage::BlockId block{};
    net::NodeId target = net::kInvalidNode;
    ReadId read = 0;
  };

  void launch_next();
  void repair_block(storage::BlockId block);

  sim::Simulator& sim_;
  net::Network& net_;
  const storage::StorageLayout& layout_;
  const storage::FailureScenario& failure_;
  storage::DegradedReadPlanner planner_;
  Options options_;
  util::Rng rng_;
  ClusterConfig fetch_cfg_;  ///< block_size only; every knob at its default
  FetchSupervisor fetch_;

  std::deque<storage::BlockId> pending_;
  std::map<int, Rebuild> rebuilds_;
  int next_rebuild_id_ = 0;
  bool started_ = false;
  Stats stats_;
};

}  // namespace dfs::mapreduce
