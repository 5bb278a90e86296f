#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dfs/runner/sweep.h"
#include "dfs/runner/thread_pool.h"

namespace dfs::runner {
namespace {

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, DefaultJobsIsPositive) { EXPECT_GE(default_jobs(), 1); }

TEST(ThreadPool, SingleJobPoolIsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 0);
  ThreadPool pool0(0);
  EXPECT_EQ(pool0.threads(), 0);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.threads(), 3);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}

// --- sweep -------------------------------------------------------------------

TEST(Sweep, ResultsIndexedByCell) {
  ThreadPool pool(8);
  const auto results =
      sweep(pool, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(Sweep, ParallelMatchesSerialExactly) {
  // The determinism contract behind every --jobs flag: same cells, same
  // results, whatever the pool width.
  const auto cell = [](std::size_t i) {
    // A little pseudo-random arithmetic per cell, seeded only by the index.
    std::uint64_t x = i * 2654435761u + 1;
    double acc = 0.0;
    for (int k = 0; k < 1000; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      acc += static_cast<double>(x >> 33) * 1e-9;
    }
    return acc;
  };
  ThreadPool serial(1), parallel(8);
  const auto a = sweep(serial, 64, cell);
  const auto b = sweep(parallel, 64, cell);
  EXPECT_EQ(a, b);  // bitwise-equal doubles, not approximately equal
}

TEST(Sweep, InlinePoolRunsOnCallerThread) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  const auto ids = sweep(pool, 4, [](std::size_t) {
    return std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(Sweep, ZeroCells) {
  ThreadPool pool(4);
  EXPECT_TRUE(sweep(pool, 0, [](std::size_t) { return 1; }).empty());
}

TEST(Sweep, PoolIsReusableAcrossSweeps) {
  ThreadPool pool(4);
  const auto a = sweep(pool, 10, [](std::size_t i) { return i + 1; });
  const auto b = sweep(pool, 10, [](std::size_t i) { return i + 2; });
  EXPECT_EQ(a[9], 10u);
  EXPECT_EQ(b[9], 11u);
}

TEST(Sweep, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(sweep(pool, 32,
                     [](std::size_t i) -> int {
                       if (i == 7) throw std::runtime_error("boom");
                       return 0;
                     }),
               std::runtime_error);
  // The pool survives a throwing sweep.
  const auto ok = sweep(pool, 8, [](std::size_t i) { return i; });
  EXPECT_EQ(ok.size(), 8u);
}

// --- tool-level determinism --------------------------------------------------
// Run the actual dfsim / dfscluster binaries at --jobs 1 and --jobs 4 and
// require byte-identical stdout, stderr, and data files. DFS_TOOLS_DIR is
// injected by CMake as the tools' output directory.

#ifdef DFS_TOOLS_DIR

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int run(const std::string& cmd) { return std::system(cmd.c_str()); }

TEST(ToolDeterminism, DfsimByteIdenticalAcrossJobs) {
  const std::string tool = std::string(DFS_TOOLS_DIR) + "/dfsim";
  const std::string tmp = ::testing::TempDir();
  const std::string common =
      " --seeds 3 --blocks 240 --reducers 5 --normalize";
  ASSERT_EQ(run(tool + common + " --jobs 1 > " + tmp + "dfsim_j1.out 2> " +
                tmp + "dfsim_j1.err"),
            0);
  ASSERT_EQ(run(tool + common + " --jobs 4 > " + tmp + "dfsim_j4.out 2> " +
                tmp + "dfsim_j4.err"),
            0);
  EXPECT_EQ(slurp(tmp + "dfsim_j1.out"), slurp(tmp + "dfsim_j4.out"));
  EXPECT_EQ(slurp(tmp + "dfsim_j1.err"), slurp(tmp + "dfsim_j4.err"));
}

TEST(ToolDeterminism, DfsimCsvByteIdenticalAcrossJobs) {
  const std::string tool = std::string(DFS_TOOLS_DIR) + "/dfsim";
  const std::string tmp = ::testing::TempDir();
  const std::string common = " --seeds 2 --blocks 240 --reducers 5 --csv ";
  ASSERT_EQ(run(tool + common + tmp + "dfsim_csv1 --jobs 1 > /dev/null"), 0);
  ASSERT_EQ(run(tool + common + tmp + "dfsim_csv4 --jobs 4 > /dev/null"), 0);
  for (const char* part : {"_map_tasks.csv", "_reduce_tasks.csv", "_jobs.csv"}) {
    EXPECT_EQ(slurp(tmp + "dfsim_csv1" + part), slurp(tmp + "dfsim_csv4" + part))
        << part;
  }
}

TEST(ToolDeterminism, DfsimRejectsBadJobs) {
  const std::string tool = std::string(DFS_TOOLS_DIR) + "/dfsim";
  EXPECT_NE(run(tool + " --jobs 0 2> /dev/null"), 0);
  EXPECT_NE(run(tool + " --jobs -1 2> /dev/null"), 0);
  EXPECT_NE(run(tool + " --jobs two 2> /dev/null"), 0);
}

TEST(ToolDeterminism, DfsclusterJsonlByteIdenticalAcrossJobs) {
  const std::string tool = std::string(DFS_TOOLS_DIR) + "/dfscluster";
  const std::string tmp = ::testing::TempDir();
  const std::string common = " --hours 0.2 --seeds 2";
  ASSERT_EQ(run(tool + common + " --jobs 1 --jsonl " + tmp +
                "dc_j1.jsonl --csv " + tmp + "dc_j1.csv > " + tmp +
                "dc_j1.out 2> " + tmp + "dc_j1.err"),
            0);
  ASSERT_EQ(run(tool + common + " --jobs 4 --jsonl " + tmp +
                "dc_j4.jsonl --csv " + tmp + "dc_j4.csv > " + tmp +
                "dc_j4.out 2> " + tmp + "dc_j4.err"),
            0);
  EXPECT_EQ(slurp(tmp + "dc_j1.jsonl"), slurp(tmp + "dc_j4.jsonl"));
  EXPECT_EQ(slurp(tmp + "dc_j1.csv"), slurp(tmp + "dc_j4.csv"));
  EXPECT_EQ(slurp(tmp + "dc_j1.err"), slurp(tmp + "dc_j4.err"));
  // stdout differs only in the echoed output paths; strip those lines.
  const auto strip_paths = [](const std::string& text) {
    std::istringstream in(text);
    std::string line, kept;
    while (std::getline(in, line)) {
      if (line.find("written to") == std::string::npos) kept += line + "\n";
    }
    return kept;
  };
  EXPECT_EQ(strip_paths(slurp(tmp + "dc_j1.out")),
            strip_paths(slurp(tmp + "dc_j4.out")));
}

TEST(ToolDeterminism, DfsclusterRejectsBadJobs) {
  const std::string tool = std::string(DFS_TOOLS_DIR) + "/dfscluster";
  EXPECT_NE(run(tool + " --jobs 0 2> /dev/null"), 0);
  EXPECT_NE(run(tool + " --seeds 0 2> /dev/null"), 0);
}

#endif  // DFS_TOOLS_DIR

}  // namespace
}  // namespace dfs::runner
