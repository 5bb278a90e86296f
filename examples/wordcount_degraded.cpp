// End-to-end functional example: WordCount over a *byte-backed*
// erasure-coded store with a failed node. The discrete-event simulator
// decides when and where every task runs; at each simulated map completion
// the real bytes are processed — and for degraded tasks the lost block is
// really reconstructed (Reed-Solomon decode) from exactly the surviving
// blocks the simulated degraded read downloaded.
//
// The example verifies that the final word counts are bit-identical to a
// failure-free reference run: erasure coding makes the node failure
// invisible to the job's output, scheduling only changes when things happen.
// It exits 1 when a run's totals differ from the reference or a rebuilt
// block differs from the original, so ctest runs it as a test.

#include <iostream>

#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/engine/block_store.h"
#include "dfs/engine/runner.h"
#include "dfs/engine/text_jobs.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"
#include "dfs/util/table.h"
#include "dfs/workload/text.h"

int main() {
  using namespace dfs;

  // A 6-node, 3-rack cluster storing a (6,4)-coded text file (each rack may
  // hold at most n-k = 2 blocks of a stripe, so three racks are needed).
  // Blocks carry real bytes (16 KiB each here — small stand-ins for HDFS's
  // 64 MB; the simulator's timing model still uses the configured size).
  mapreduce::ClusterConfig cluster;
  cluster.topology = net::Topology(3, 2);
  cluster.links.rack_up = util::megabits_per_sec(500);
  cluster.links.rack_down = util::megabits_per_sec(500);
  cluster.block_size = util::mebibytes(64);
  cluster.map_slots_per_node = 2;

  util::Rng rng(7);
  const int kBlocks = 48;
  const std::size_t kBlockBytes = 16 * 1024;

  mapreduce::JobInput job;
  job.spec.map_time = {10.0, 1.0};
  job.spec.reduce_time = {8.0, 1.0};
  job.spec.num_reducers = 4;
  job.spec.shuffle_ratio = 0.05;
  job.layout = std::make_shared<storage::StorageLayout>(
      storage::random_rack_constrained_layout(kBlocks, 6, 4, cluster.topology,
                                              rng));
  job.code = ec::make_reed_solomon(6, 4);

  // Generate a synthetic Gutenberg-like corpus and encode it into stripes.
  std::string corpus = workload::generate_text(rng, kBlocks * kBlockBytes);
  corpus.resize(kBlocks * kBlockBytes);
  const engine::ByteBlockStore store(corpus, *job.layout, *job.code,
                                     kBlockBytes);
  std::cout << "Stored " << corpus.size() / 1024 << " KiB of text as "
            << kBlocks << " native + "
            << job.layout->num_stripes() * 2 << " parity blocks (RS(6,4)).\n";

  // Fail a node and run WordCount under both schedulers.
  const auto failure = storage::single_node_failure(cluster.topology, rng);
  std::cout << "Failing node " << failure.failed_nodes().front() << ".\n\n";
  const auto word_count = engine::make_word_count();
  const engine::KeyCounts expected = engine::reference_run(store, *word_count);

  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  util::Table table({"scheduler", "runtime (s)", "degraded rebuilds",
                     "bytes verified", "output == reference"});
  bool all_exact = true;
  for (core::Scheduler* sched : {static_cast<core::Scheduler*>(&lf),
                                 static_cast<core::Scheduler*>(&edf)}) {
    const auto result = engine::run_functional_job(
        cluster, job, store, *word_count, failure, *sched, /*seed=*/3);
    all_exact = all_exact && result.reconstruction_verified &&
                result.totals == expected;
    table.add_row(
        {sched->name(),
         util::Table::num(result.timing.jobs.front().runtime(), 1),
         std::to_string(result.degraded_reconstructions),
         result.reconstruction_verified ? "yes" : "NO",
         result.totals == expected ? "yes" : "NO"});
  }
  std::cout << table;

  // Show the job's actual output: the ten most frequent words.
  std::cout << "\nTop words (from the degraded-mode run):\n";
  const auto result = engine::run_functional_job(cluster, job, store,
                                                 *word_count, failure, edf, 3);
  all_exact = all_exact && result.reconstruction_verified &&
              result.totals == expected;
  std::vector<std::pair<long, std::string>> ranked;
  for (const auto& [word, count] : result.totals) {
    ranked.emplace_back(count, word);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < 10 && i < ranked.size(); ++i) {
    std::cout << "  " << ranked[i].second << ": " << ranked[i].first << '\n';
  }
  if (!all_exact) {
    std::cerr << "FAILED: a run's output or a rebuilt block differs from "
                 "the reference\n";
    return 1;
  }
  return 0;
}
