#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "dfs/core/degraded_first.h"
#include "dfs/core/locality_first.h"
#include "dfs/ec/cauchy.h"
#include "dfs/ec/lrc.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/ec/registry.h"
#include "dfs/engine/block_store.h"
#include "dfs/engine/runner.h"
#include "dfs/engine/text_jobs.h"
#include "dfs/storage/failure.h"
#include "dfs/storage/layout.h"
#include "dfs/workload/text.h"

namespace dfs::engine {
namespace {

// --- text jobs ---------------------------------------------------------------

TEST(TextJobs, WordCountCountsWords) {
  const auto job = make_word_count();
  const KeyCounts c = job->map("the cat and the dog\nthe end\n");
  EXPECT_EQ(c.at("the"), 3);
  EXPECT_EQ(c.at("cat"), 1);
  EXPECT_EQ(c.at("end"), 1);
  EXPECT_EQ(c.size(), 5u);
}

TEST(TextJobs, WordCountHandlesWhitespaceRuns) {
  const auto job = make_word_count();
  const KeyCounts c = job->map("  a\t b \n\n c  ");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.at("a"), 1);
}

TEST(TextJobs, WordCountEmptyInput) {
  const auto job = make_word_count();
  EXPECT_TRUE(job->map("").empty());
  EXPECT_TRUE(job->map("\n\n  \n").empty());
}

TEST(TextJobs, GrepMatchesLines) {
  const auto job = make_grep("cat");
  const KeyCounts c = job->map("the cat sat\ndog only\nconcatenate this\n");
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.count("the cat sat"), 1u);
  EXPECT_EQ(c.count("concatenate this"), 1u);
}

TEST(TextJobs, GrepCountsDuplicateLines) {
  const auto job = make_grep("x");
  const KeyCounts c = job->map("x marks\nx marks\n");
  EXPECT_EQ(c.at("x marks"), 2);
}

TEST(TextJobs, LineCountCountsLines) {
  const auto job = make_line_count();
  const KeyCounts c = job->map("alpha\nbeta\nalpha\n");
  EXPECT_EQ(c.at("alpha"), 2);
  EXPECT_EQ(c.at("beta"), 1);
}

TEST(TextJobs, MergeCountsSums) {
  KeyCounts a{{"x", 1}, {"y", 2}};
  const KeyCounts b{{"y", 3}, {"z", 4}};
  merge_counts(a, b);
  EXPECT_EQ(a.at("x"), 1);
  EXPECT_EQ(a.at("y"), 5);
  EXPECT_EQ(a.at("z"), 4);
}

TEST(TextJobs, WordCountOfGeneratedTextIsPinned) {
  // Recorded from the per-token std::map implementation, so a wrong map
  // kernel cannot pass by agreeing with itself (reference_run calls the
  // same map()).
  util::Rng rng(20240601);
  const std::string text = workload::generate_text(rng, 1 << 20);
  const KeyCounts c = make_word_count()->map(text);
  long total = 0;
  std::vector<std::pair<long, std::string>> ranked;
  for (const auto& [word, count] : c) {
    total += count;
    ranked.emplace_back(count, word);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  EXPECT_EQ(total, 263015);
  EXPECT_EQ(c.size(), 200u);
  ASSERT_GE(ranked.size(), 3u);
  EXPECT_EQ(ranked[0], std::make_pair(50048L, std::string("the")));
  EXPECT_EQ(ranked[1], std::make_pair(24456L, std::string("of")));
  EXPECT_EQ(ranked[2], std::make_pair(15947L, std::string("and")));
}

// --- map kernels against the per-token std::map oracles ----------------------

// The per-token std::map implementations the map kernels replaced, copied
// verbatim: the reference every kernel's output must equal.
namespace oracle {

bool is_word_char(char c) {
  return c != ' ' && c != '\n' && c != '\t' && c != '\r' && c != '\0';
}

/// Calls fn(line) for every '\n'-terminated (or trailing) line.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    fn(text.substr(start, end - start));
    start = end + 1;
  }
}

KeyCounts word_count(std::string_view text) {
  KeyCounts counts;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !is_word_char(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && is_word_char(text[i])) ++i;
    if (i > start) {
      ++counts[std::string(text.substr(start, i - start))];
    }
  }
  return counts;
}

KeyCounts grep(std::string_view text, const std::string& pattern) {
  KeyCounts counts;
  for_each_line(text, [&](std::string_view line) {
    if (line.find(pattern) != std::string_view::npos) {
      ++counts[std::string(line)];
    }
  });
  return counts;
}

KeyCounts line_count(std::string_view text) {
  KeyCounts counts;
  for_each_line(text, [&](std::string_view line) {
    if (!line.empty()) ++counts[std::string(line)];
  });
  return counts;
}

}  // namespace oracle

const std::string kDelimiters(" \n\t\r\0", 5);

/// Runs `job` on a heap copy of `text` exactly text.size() bytes long, so a
/// sanitizer build reports any read past the end.
KeyCounts map_exact(const TextJob& job, std::string_view text) {
  const auto bytes = std::make_unique<char[]>(text.size());
  std::copy(text.begin(), text.end(), bytes.get());
  return job.map(std::string_view(bytes.get(), text.size()));
}

/// Equality that names the first differing entry instead of printing maps
/// of thousands of keys.
::testing::AssertionResult same_counts(const KeyCounts& got,
                                       const KeyCounts& want) {
  if (got == want) return ::testing::AssertionSuccess();
  const auto [g, w] =
      std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  auto failure = ::testing::AssertionFailure()
                 << got.size() << " keys, oracle has " << want.size();
  if (g != got.end()) {
    failure << "; got " << ::testing::PrintToString(g->first) << " = "
            << g->second;
  }
  if (w != want.end()) {
    failure << "; oracle " << ::testing::PrintToString(w->first) << " = "
            << w->second;
  }
  return failure;
}

/// Checks WordCount, LineCount and Grep (once per pattern) against the
/// oracles.
void expect_matches_oracles(std::string_view text,
                            const std::vector<std::string>& patterns) {
  SCOPED_TRACE("text of " + std::to_string(text.size()) + " bytes");
  EXPECT_TRUE(same_counts(map_exact(*make_word_count(), text),
                          oracle::word_count(text)));
  EXPECT_TRUE(same_counts(map_exact(*make_line_count(), text),
                          oracle::line_count(text)));
  for (const std::string& pattern : patterns) {
    EXPECT_TRUE(same_counts(map_exact(*make_grep(pattern), text),
                            oracle::grep(text, pattern)))
        << "Grep(" << ::testing::PrintToString(pattern) << ")";
  }
}

char random_byte(std::mt19937_64& rng) {
  return static_cast<char>(std::uniform_int_distribution<int>(0, 255)(rng));
}

/// A word of `len` bytes drawn from every non-delimiter byte value,
/// '\v', '\f' and bytes >= 0x80 included.
std::string random_word(std::mt19937_64& rng, std::size_t len) {
  std::string word;
  while (word.size() < len) {
    const char c = random_byte(rng);
    if (oracle::is_word_char(c)) word.push_back(c);
  }
  return word;
}

/// `n` delimiters drawn from all five.
std::string delimiter_run(std::mt19937_64& rng, std::size_t n) {
  std::string run(n, ' ');
  for (char& c : run) {
    c = kDelimiters[std::uniform_int_distribution<std::size_t>(
        0, kDelimiters.size() - 1)(rng)];
  }
  return run;
}

std::string random_delimiters(std::mt19937_64& rng, int max_run) {
  return delimiter_run(rng, static_cast<std::size_t>(
                                std::uniform_int_distribution<int>(
                                    1, max_run)(rng)));
}

TEST(TextJobKernels, EveryByteValueMatchesOracles) {
  std::string ordered;
  for (int b = 0; b < 256; ++b) ordered.push_back(static_cast<char>(b));
  std::mt19937_64 rng(1);
  std::string shuffled = ordered + ordered;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const std::vector<std::string> patterns = {"", "\xff", "\v\f", "a",
                                             std::string(1, '\0')};
  expect_matches_oracles(ordered + ordered, patterns);
  expect_matches_oracles(shuffled, patterns);
  // Uniform random bytes: few delimiters, so words run long.
  for (std::size_t len : {1u, 7u, 9u, 63u, 65u, 127u, 1000u, 4099u}) {
    std::string text;
    for (std::size_t i = 0; i < len; ++i) text.push_back(random_byte(rng));
    expect_matches_oracles(text, patterns);
  }
}

TEST(TextJobKernels, EveryPrefixLengthMatchesOracles) {
  // Words of 1 to 130 bytes, each followed by one of the five delimiters,
  // cut at every length: most cuts end inside a word (a word on the last
  // byte) at a length that is not a multiple of 8.
  std::mt19937_64 rng(2);
  std::string text;
  for (std::size_t len = 1; len <= 130; len += 3) {
    text += random_word(rng, len);
    text.push_back(kDelimiters[len % kDelimiters.size()]);
    text += random_word(rng, 1 + len % 9);
    text.push_back(kDelimiters[(len + 1) % kDelimiters.size()]);
  }
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::string_view prefix = std::string_view(text).substr(0, cut);
    expect_matches_oracles(prefix,
                           {"", std::string(prefix.substr(cut / 2, 2))});
  }
}

TEST(TextJobKernels, EmptyAndDelimiterOnlyInputsMatchOracles) {
  expect_matches_oracles("", {"", "a"});
  std::mt19937_64 rng(3);
  for (int i = 0; i < 50; ++i) {
    expect_matches_oracles(random_delimiters(rng, 150), {"", " ", "a"});
  }
  EXPECT_TRUE(make_word_count()->map(kDelimiters).empty());
  EXPECT_TRUE(make_line_count()->map("\n\n").empty());
  EXPECT_EQ(make_grep("")->map("\n\n"), (KeyCounts{{"", 2}}));
}

TEST(TextJobKernels, GrepPatternsAtLineEdgesMatchOracle) {
  std::mt19937_64 rng(4);
  std::vector<std::string> lines;
  for (int i = 0; i < 200; ++i) {
    std::string line;
    for (int w = 0; w < 1 + i % 7; ++w) {
      if (w > 0) line.push_back(' ');
      line += random_word(rng, 1 + static_cast<std::size_t>(i * w) % 11);
    }
    lines.push_back(line);
  }
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  text += lines[5];  // a last line without '\n'
  std::vector<std::string> patterns = {""};
  for (const std::string& line : {lines[5], lines[17], lines[42]}) {
    for (std::size_t n = 1; n <= 4 && n <= line.size(); ++n) {
      patterns.push_back(line.substr(0, n));              // line start
      patterns.push_back(line.substr(line.size() - n));   // line end
    }
    patterns.push_back(line);
  }
  expect_matches_oracles(text, patterns);
}

TEST(TextJobKernels, ManyDistinctKeysMatchOracles) {
  // ~250k distinct words grow the table many times over, and with that
  // many keys some pairs share a stored 32-bit hash, so keys must really be
  // compared.
  std::mt19937_64 rng(5);
  std::string text;
  for (int i = 0; i < 250000; ++i) {
    const auto len = std::uniform_int_distribution<std::size_t>(1, 16)(rng);
    text += random_word(rng, len);
    text += random_delimiters(rng, 2);
  }
  ASSERT_GE(oracle::word_count(text).size(), 5000u);
  expect_matches_oracles(text, {""});
}

TEST(TextJobKernels, WordsAtLaneAndWindowEdgesMatchOracles) {
  // The tokenizer classifies 16-byte lanes of 64-byte windows, and copies
  // the last partial window into a padded buffer. Words of 1 to 20 bytes
  // start, then end, one byte before, at and after every lane boundary of
  // the first two windows, in texts that end on that word (a tail window)
  // and in texts that run on past the next window.
  std::mt19937_64 rng(6);
  for (std::size_t edge = 16; edge <= 128; edge += 16) {
    for (std::size_t at = edge - 1; at <= edge + 1; ++at) {
      for (std::size_t len = 1; len <= 20; ++len) {
        const std::string word = random_word(rng, len);
        const std::string starts = delimiter_run(rng, at) + word;
        expect_matches_oracles(starts, {""});
        expect_matches_oracles(starts + delimiter_run(rng, 1) +
                                   random_word(rng, 70),
                               {""});
        if (at < len) continue;
        const std::string ends = delimiter_run(rng, at - len) + word;
        expect_matches_oracles(ends, {""});
        expect_matches_oracles(ends + delimiter_run(rng, 70), {""});
      }
    }
  }
}

TEST(TextJobKernels, EveryDelimiterAtEveryLanePositionMatchesOracles) {
  // One special byte inside an otherwise unbroken word: the five
  // delimiters split it, '\v', '\f' and 0x80 do not. Lengths of one and
  // two full windows and of a full window plus a 36-byte tail.
  std::mt19937_64 rng(7);
  const std::string specials = kDelimiters + "\v\f\x80";
  for (const std::size_t len : {64u, 128u, 100u}) {
    const std::string word = random_word(rng, len);
    for (const char c : specials) {
      for (std::size_t pos = 0; pos < len; ++pos) {
        std::string text = word;
        text[pos] = c;
        expect_matches_oracles(text, {std::string(1, c)});
      }
    }
  }
}

TEST(TextJobKernels, KeysSharingTheirFirst8Or16BytesMatchOracles) {
  // Keys with equal first eight bytes have equal heads, so only the bytes
  // after them tell them apart; a shared 16-byte prefix also equalizes the
  // second hashed word. Suffixes of 0 to 12 bytes, and pairs that differ in
  // their last byte only.
  std::mt19937_64 rng(8);
  std::vector<std::string> keys;
  for (const std::size_t prefix_len : {8u, 16u}) {
    const std::string prefix = random_word(rng, prefix_len);
    for (std::size_t suffix_len = 0; suffix_len <= 12; ++suffix_len) {
      for (int variant = 0; variant < 4; ++variant) {
        std::string key = prefix + random_word(rng, suffix_len);
        keys.push_back(key);
        if (suffix_len > 0) {
          key.back() = key.back() == 'a' ? 'b' : 'a';
          keys.push_back(key);
        }
      }
    }
  }
  std::string text;
  for (int copy = 0; copy < 3; ++copy) {
    std::shuffle(keys.begin(), keys.end(), rng);
    for (const std::string& key : keys) {
      text += key + delimiter_run(rng, 1 + copy);
    }
  }
  expect_matches_oracles(text, {"", keys.front()});
}

TEST(TextJobKernels, LongWordEndingNearTheBlockEndMatchesOracles) {
  // A word of 9 to 40 bytes whose last byte is each of the block's last
  // eight bytes, in blocks of every length modulo 64: the hash's eight-byte
  // loads must stay inside the block (map_exact lets ASan see past it).
  std::mt19937_64 rng(9);
  for (std::size_t lead = 0; lead < 64; ++lead) {
    for (std::size_t trailing = 0; trailing < 8; ++trailing) {
      const std::size_t len = 9 + (lead * 8 + trailing) % 32;
      const std::string text = random_word(rng, lead) + delimiter_run(rng, 1) +
                               random_word(rng, len) +
                               delimiter_run(rng, trailing);
      expect_matches_oracles(text, {""});
    }
  }
}

// --- block store -----------------------------------------------------------------

class StoreTest : public ::testing::Test {
 protected:
  StoreTest()
      : topo_(2, 3),
        rng_(21),
        layout_(storage::random_rack_constrained_layout(12, 4, 2, topo_,
                                                        rng_)),
        code_(ec::make_reed_solomon(4, 2)),
        text_(workload::generate_text(rng_, 12 * 256)),
        store_((text_.resize(12 * 256), text_), layout_, *code_, 256) {}

  net::Topology topo_;
  util::Rng rng_;
  storage::StorageLayout layout_;
  std::unique_ptr<ec::ErasureCode> code_;
  std::string text_;
  ByteBlockStore store_;
};

TEST_F(StoreTest, NativeBlocksHoldTheFileBytes) {
  std::string reassembled;
  for (int i = 0; i < layout_.num_native_blocks(); ++i) {
    const auto& shard = store_.native(i);
    reassembled.append(reinterpret_cast<const char*>(shard.data()),
                       shard.size());
  }
  // The file's bytes come back in order (tail padded with '\n').
  EXPECT_EQ(reassembled.substr(0, text_.size()), text_);
  for (std::size_t i = text_.size(); i < reassembled.size(); ++i) {
    EXPECT_EQ(reassembled[i], '\n');
  }
}

TEST_F(StoreTest, ParityShardsVerifyAgainstReencode) {
  // Every stripe's parity equals a fresh encode of its natives.
  for (int s = 0; s < layout_.num_stripes(); ++s) {
    std::vector<ec::Shard> natives;
    for (int b = 0; b < layout_.k(); ++b) {
      natives.push_back(store_.shard({s, b}));
    }
    const auto parity = code_->encode(natives);
    for (int p = 0; p < layout_.n() - layout_.k(); ++p) {
      EXPECT_EQ(parity[static_cast<std::size_t>(p)],
                store_.shard({s, layout_.k() + p}));
    }
  }
}

TEST_F(StoreTest, ReconstructFromPlannedSources) {
  const storage::DegradedReadPlanner planner(
      layout_, topo_, *code_, storage::SourceSelection::kRandom);
  const net::NodeId victim = layout_.node_of({0, 0});
  const storage::FailureScenario failure({victim});
  const auto sources = planner.plan({0, 0}, (victim + 1) % 6, failure, rng_);
  ASSERT_TRUE(sources.has_value());
  const ec::Shard rebuilt = store_.reconstruct({0, 0}, *sources);
  EXPECT_EQ(rebuilt, store_.shard({0, 0}));
}

TEST_F(StoreTest, RejectsMisalignedBlockSize) {
  EXPECT_THROW(ByteBlockStore(text_, layout_, *code_, 100),
               std::invalid_argument);
}

TEST_F(StoreTest, RejectsCrossStripeSources) {
  std::vector<storage::DegradedSource> bad = {
      {{1, 1}, layout_.node_of({1, 1})}};
  EXPECT_THROW(store_.reconstruct({0, 0}, bad), std::invalid_argument);
}

// --- end-to-end functional runs ----------------------------------------------------

struct FunctionalFixture {
  net::Topology topo{2, 3};
  mapreduce::ClusterConfig cfg;
  mapreduce::JobInput job;
  util::Rng rng{77};
  std::string text;
  std::unique_ptr<ec::ErasureCode> code = ec::make_reed_solomon(4, 2);
  std::unique_ptr<ByteBlockStore> store;

  FunctionalFixture() {
    cfg.topology = topo;
    cfg.links.rack_up = 1000.0;
    cfg.links.rack_down = 1000.0;
    cfg.map_slots_per_node = 2;
    cfg.block_size = 1000.0;
    cfg.heartbeat_interval = 1.0;

    job.spec.map_time = {2.0, 0.2};
    job.spec.reduce_time = {2.0, 0.2};
    job.spec.num_reducers = 3;
    job.spec.shuffle_ratio = 0.05;
    job.layout = std::make_shared<storage::StorageLayout>(
        storage::random_rack_constrained_layout(24, 4, 2, topo, rng));
    job.code = ec::make_reed_solomon(4, 2);

    text = workload::generate_text(rng, 24 * 512);
    store = std::make_unique<ByteBlockStore>(text, *job.layout, *code, 512);
  }
};

TEST(FunctionalRun, NormalModeMatchesReference) {
  FunctionalFixture f;
  const auto wc = make_word_count();
  core::LocalityFirstScheduler lf;
  const auto result = run_functional_job(f.cfg, f.job, *f.store, *wc,
                                         storage::no_failure(), lf, 5);
  EXPECT_EQ(result.degraded_reconstructions, 0);
  EXPECT_TRUE(result.reconstruction_verified);
  EXPECT_EQ(result.totals, reference_run(*f.store, *wc));
}

TEST(FunctionalRun, FailureModeStillProducesExactOutput) {
  FunctionalFixture f;
  const auto wc = make_word_count();
  auto edf = core::DegradedFirstScheduler::enhanced();
  const storage::FailureScenario failure({0});
  const auto result =
      run_functional_job(f.cfg, f.job, *f.store, *wc, failure, edf, 6);
  EXPECT_GT(result.degraded_reconstructions, 0);
  EXPECT_TRUE(result.reconstruction_verified);
  // Word counts are bit-identical despite the lost node: degraded reads
  // really reconstructed the lost blocks.
  EXPECT_EQ(result.totals, reference_run(*f.store, *wc));
}

TEST(FunctionalRun, SchedulerDoesNotChangeOutput) {
  FunctionalFixture f;
  const auto lc = make_line_count();
  core::LocalityFirstScheduler lf;
  auto edf = core::DegradedFirstScheduler::enhanced();
  const storage::FailureScenario failure({2});
  const auto a = run_functional_job(f.cfg, f.job, *f.store, *lc, failure, lf, 7);
  const auto b =
      run_functional_job(f.cfg, f.job, *f.store, *lc, failure, edf, 7);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_TRUE(a.reconstruction_verified);
  EXPECT_TRUE(b.reconstruction_verified);
}

TEST(FunctionalRun, GrepFindsPlantedLines) {
  FunctionalFixture f;
  const auto grep = make_grep(workload::vocabulary_word(0));
  core::LocalityFirstScheduler lf;
  const storage::FailureScenario failure({1});
  const auto result =
      run_functional_job(f.cfg, f.job, *f.store, *grep, failure, lf, 8);
  EXPECT_EQ(result.totals, reference_run(*f.store, *grep));
  EXPECT_FALSE(result.totals.empty());  // rank-1 word appears somewhere
}

TEST(FunctionalRun, WorksWithCauchyReedSolomon) {
  FunctionalFixture f;
  f.job.code = ec::make_cauchy_reed_solomon(4, 2);
  const auto crs = ec::make_cauchy_reed_solomon(4, 2);
  ByteBlockStore store(f.text, *f.job.layout, *crs, 512);
  const auto wc = make_word_count();
  auto edf = core::DegradedFirstScheduler::enhanced();
  const storage::FailureScenario failure({3});
  const auto result =
      run_functional_job(f.cfg, f.job, store, *wc, failure, edf, 9);
  EXPECT_GT(result.degraded_reconstructions, 0);
  EXPECT_TRUE(result.reconstruction_verified);
  EXPECT_EQ(result.totals, reference_run(store, *wc));
}

TEST(FunctionalRun, WorksWithLrc) {
  // LRC(4, 2, 1): n = 7; use a wider cluster so placement is feasible.
  FunctionalFixture f;
  f.cfg.topology = net::Topology(3, 3);
  util::Rng rng(31);
  auto lrc_for_layout = ec::make_lrc(4, 2, 1);
  f.job.layout = std::make_shared<storage::StorageLayout>(
      storage::random_rack_constrained_layout(24, 7, 4, f.cfg.topology, rng));
  f.job.code = ec::make_lrc(4, 2, 1);
  ByteBlockStore store(f.text, *f.job.layout, *lrc_for_layout, 512);
  const auto wc = make_word_count();
  auto edf = core::DegradedFirstScheduler::enhanced();
  const storage::FailureScenario failure({0});
  const auto result =
      run_functional_job(f.cfg, f.job, store, *wc, failure, edf, 10);
  EXPECT_TRUE(result.reconstruction_verified);
  EXPECT_EQ(result.totals, reference_run(store, *wc));
  // LRC degraded reads fetch only the locality group (2 shards + parity...
  // group size k/l = 2, so 2 sources when the group is intact).
  for (const auto& t : result.timing.map_tasks) {
    if (t.kind == mapreduce::MapTaskKind::kDegraded) {
      EXPECT_LE(t.sources.size(), 4u);
      EXPECT_GE(t.sources.size(), 2u);
    }
  }
}

TEST(FunctionalRun, MapOnlyJobAccumulatesDirectly) {
  FunctionalFixture f;
  f.job.spec.num_reducers = 0;
  f.job.spec.shuffle_ratio = 0.0;
  const auto wc = make_word_count();
  core::LocalityFirstScheduler lf;
  const auto result = run_functional_job(f.cfg, f.job, *f.store, *wc,
                                         storage::no_failure(), lf, 11);
  EXPECT_EQ(result.totals, reference_run(*f.store, *wc));
}

// --- parameterized functional sweep: every code family x scheduler ------------------

using FunctionalParam = std::tuple<std::string, std::string>;

class FunctionalSweep : public ::testing::TestWithParam<FunctionalParam> {};

TEST_P(FunctionalSweep, OutputIdenticalToReference) {
  const auto& [code_spec, sched_name] = GetParam();
  mapreduce::ClusterConfig cfg;
  // Three racks of three nodes: wide enough for every swept code's
  // rack-placement rule (LRC(4,2,1) has n = 7).
  cfg.topology = net::Topology(3, 3);
  cfg.links.rack_up = 1000.0;
  cfg.links.rack_down = 1000.0;
  cfg.map_slots_per_node = 2;
  cfg.block_size = 1000.0;
  cfg.heartbeat_interval = 1.0;

  util::Rng rng(101);
  auto code = ec::make_code_from_spec(code_spec);
  ASSERT_NE(code, nullptr);
  mapreduce::JobInput job;
  job.spec.map_time = {2.0, 0.2};
  job.spec.reduce_time = {2.0, 0.2};
  job.spec.num_reducers = 3;
  job.spec.shuffle_ratio = 0.05;
  const int blocks = 6 * code->k();
  job.layout = std::make_shared<storage::StorageLayout>(
      storage::random_rack_constrained_layout(blocks, code->n(), code->k(),
                                              cfg.topology, rng));
  job.code = code;

  std::string text = workload::generate_text(rng, blocks * 512);
  text.resize(static_cast<std::size_t>(blocks) * 512);
  const ByteBlockStore store(text, *job.layout, *code, 512);
  const auto wc = make_word_count();
  const KeyCounts expected = reference_run(store, *wc);

  const auto scheduler = core::make_scheduler(sched_name);
  const storage::FailureScenario failure({1});
  const auto result =
      run_functional_job(cfg, job, store, *wc, failure, *scheduler, 7);
  EXPECT_TRUE(result.reconstruction_verified);
  EXPECT_EQ(result.totals, expected)
      << code_spec << " under " << sched_name;
}

INSTANTIATE_TEST_SUITE_P(
    CodesAndSchedulers, FunctionalSweep,
    ::testing::Combine(::testing::Values("rs:6,4", "crs:6,4", "lrc:4,2,1",
                                         "rs16:6,4"),
                       ::testing::Values("LF", "EDF", "BDF")),
    [](const ::testing::TestParamInfo<FunctionalParam>& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::get<1>(info.param);
      for (char& c : name) {
        if (c == ':' || c == ',' || c == '+') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dfs::engine
