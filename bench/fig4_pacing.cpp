// Reproduces Figure 4 of the paper: the execution flow of basic
// degraded-first scheduling on a four-slave cluster with one map slot per
// slave, a (4,2) code, 12 native blocks (3 lost), 10 s transfers and 10 s
// map tasks. The paper's schedule launches the three degraded tasks as the
// 1st, 5th and 9th map tasks, at 0 s, 10 s and 30 s — evenly paced, never
// competing for the network.

#include <algorithm>
#include <iostream>

#include "dfs/core/degraded_first.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/mapreduce/simulation.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"
#include "dfs/util/flags.h"
#include "dfs/util/table.h"

using namespace dfs;

int main(int argc, char** argv) {
  util::FlagTable flags("fig4_pacing",
                        "Figure 4: degraded-first pacing on four slaves");
  if (const auto status = flags.parse(argc, argv)) return *status;
  // Nodes 0,1 in rack A; 2,3 in rack B. Node 0 fails, losing the natives
  // B00, B10, B20; each surviving slave stores three native blocks.
  mapreduce::ClusterConfig cfg;
  cfg.topology = net::Topology(2, 2);
  const auto mbps100 = util::megabits_per_sec(100);
  cfg.links.node_up = mbps100;
  cfg.links.node_down = mbps100;
  cfg.links.rack_up = mbps100;
  cfg.links.rack_down = mbps100;
  cfg.block_size = 125e6;  // one block moves in exactly 10 s
  cfg.map_slots_per_node = 1;
  cfg.heartbeat_interval = 0.25;

  mapreduce::JobInput job;
  job.spec.map_time = {10.0, 0.0};
  job.spec.num_reducers = 0;
  job.spec.shuffle_ratio = 0.0;
  job.layout = std::make_shared<storage::StorageLayout>(
      storage::StorageLayout(4, 2, {{0, 1, 2, 3},
                                    {0, 2, 1, 3},
                                    {0, 3, 1, 2},
                                    {1, 3, 2, 0},
                                    {2, 1, 3, 0},
                                    {3, 2, 0, 1}}));
  job.code = ec::make_reed_solomon(4, 2);

  auto bdf = core::DegradedFirstScheduler::basic();
  const auto result =
      mapreduce::simulate(cfg, {job}, storage::FailureScenario({0}), bdf, 1,
                          storage::SourceSelection::kPreferSameRack);

  auto tasks = result.map_tasks;
  std::sort(tasks.begin(), tasks.end(), [](const auto& a, const auto& b) {
    return a.assign_time < b.assign_time;
  });
  util::Table t({"launch #", "block", "kind", "node", "assigned (s)",
                 "finished (s)"});
  int degraded_positions[3] = {0, 0, 0};
  int di = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& task = tasks[i];
    if (task.kind == mapreduce::MapTaskKind::kDegraded && di < 3) {
      degraded_positions[di++] = static_cast<int>(i) + 1;
    }
    std::string block = "B";
    block += std::to_string(task.block.stripe);
    block += std::to_string(task.block.index);
    t.add_row({std::to_string(i + 1), block,
               mapreduce::to_string(task.kind),
               std::to_string(task.exec_node),
               util::Table::num(task.assign_time, 1),
               util::Table::num(task.finish_time, 1)});
  }
  std::cout << "Figure 4: basic degraded-first execution flow (4 slaves, "
               "1 slot each, 3 degraded tasks)\n\n"
            << t << "\nDegraded tasks launched as map tasks #"
            << degraded_positions[0] << ", #" << degraded_positions[1]
            << ", #" << degraded_positions[2]
            << " — the paper's Fig. 4 pacing is 1st, 5th, 9th.\n"
            << "Map phase ends at "
            << util::Table::num(result.jobs.front().map_phase_end, 1)
            << " s.\n";
  return 0;
}
