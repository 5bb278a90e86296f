#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include <sstream>

#include "dfs/util/args.h"
#include "dfs/util/epoch.h"
#include "dfs/util/flags.h"
#include "dfs/util/jsonl.h"
#include "dfs/util/rng.h"
#include "dfs/util/stale_queue.h"
#include "dfs/util/stats.h"
#include "dfs/util/streaming_quantile.h"
#include "dfs/util/table.h"
#include "dfs/util/units.h"

namespace dfs::util {
namespace {

// --- units -------------------------------------------------------------------

TEST(Units, ByteConversions) {
  EXPECT_DOUBLE_EQ(kilobytes(1), 1e3);
  EXPECT_DOUBLE_EQ(megabytes(2), 2e6);
  EXPECT_DOUBLE_EQ(gigabytes(1.5), 1.5e9);
  EXPECT_DOUBLE_EQ(mebibytes(1), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(gibibytes(1), 1024.0 * 1024.0 * 1024.0);
}

TEST(Units, BandwidthConversions) {
  // 1 Gbps = 125 MB/s.
  EXPECT_DOUBLE_EQ(gigabits_per_sec(1), 125e6);
  EXPECT_DOUBLE_EQ(megabits_per_sec(100), 12.5e6);
}

TEST(Units, PaperBlockTransferTime) {
  // §III: a 128 MB block over 100 Mbps takes "around 10s".
  const double t = mebibytes(128) / megabits_per_sec(100);
  EXPECT_NEAR(t, 10.7, 0.1);
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1000000) == b.uniform_int(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = r.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, NormalMeanAndClamp) {
  Rng r(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = r.normal(20.0, 1.0);
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 20.0, 0.1);
}

TEST(Rng, NormalZeroStddevIsDeterministic) {
  Rng r(7);
  EXPECT_DOUBLE_EQ(r.normal(10.0, 0.0), 10.0);
}

TEST(Rng, NormalClampsAtFloor) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.normal(0.0, 5.0, 0.5), 0.5);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) sum += r.exponential(120.0);
  EXPECT_NEAR(sum / 50000, 120.0, 3.0);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng r(3);
  for (int trial = 0; trial < 100; ++trial) {
    auto s = r.sample_indices(10, 4);
    ASSERT_EQ(s.size(), 4u);
    std::sort(s.begin(), s.end());
    EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
    for (auto v : s) EXPECT_LT(v, 10u);
  }
}

TEST(Rng, ZipfRankOneMostFrequent) {
  Rng r(5);
  std::vector<int> hits(21, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto z = r.zipf(20, 1.0);
    ASSERT_GE(z, 1u);
    ASSERT_LE(z, 20u);
    ++hits[z];
  }
  EXPECT_GT(hits[1], hits[2]);
  EXPECT_GT(hits[2], hits[10]);
}

// The Zipf draw before the guide table, kept as the oracle: the same cached
// CDF, the same uniform(0, 1) draw, and std::lower_bound over the CDF.
class LowerBoundZipf {
 public:
  explicit LowerBoundZipf(std::uint64_t seed) : engine_(seed) {}

  std::size_t zipf(std::size_t n, double s) {
    if (n_ != n || s_ != s) {
      n_ = n;
      s_ = s;
      cdf_.resize(n);
      double acc = 0.0;
      for (std::size_t r = 1; r <= n; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r), s);
        cdf_[r - 1] = acc;
      }
      for (auto& c : cdf_) c /= acc;
    }
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin()) + 1;
  }

  const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::size_t n_ = 0;
  double s_ = 0.0;
  std::vector<double> cdf_;
};

struct ZipfArgs {
  std::size_t n;
  double s;
};

// Draws `draws` ranks, switching between `args` after runs of 1, 2, ..., 64
// draws (one argument set never switches), and requires every rank and the
// final engine state to match the oracle's.
void expect_zipf_matches_lower_bound(std::uint64_t seed,
                                     const std::vector<ZipfArgs>& args,
                                     int draws) {
  Rng rng(seed);
  LowerBoundZipf oracle(seed);
  std::size_t which = 0;
  int run = 1;
  int left = run;
  for (int i = 0; i < draws; ++i) {
    const ZipfArgs& a = args[which];
    const std::size_t want = oracle.zipf(a.n, a.s);
    const std::size_t got = rng.zipf(a.n, a.s);
    if (got != want) {
      FAIL() << "draw " << i << " of zipf(" << a.n << ", " << a.s
             << "): got " << got << ", lower_bound gives " << want;
    }
    if (--left == 0) {
      which = (which + 1) % args.size();
      run = run % 64 + 1;
      left = run;
    }
  }
  EXPECT_TRUE(rng.engine() == oracle.engine());
}

TEST(Rng, ZipfMatchesLowerBoundSingleRank) {
  expect_zipf_matches_lower_bound(11, {{1, 1.0}}, 1'000'000);
}

TEST(Rng, ZipfMatchesLowerBoundUniform) {
  expect_zipf_matches_lower_bound(12, {{2, 0.0}}, 1'000'000);
}

TEST(Rng, ZipfMatchesLowerBoundSteep) {
  expect_zipf_matches_lower_bound(13, {{8, 1.2}}, 1'000'000);
}

TEST(Rng, ZipfMatchesLowerBoundTextVocabulary) {
  expect_zipf_matches_lower_bound(14, {{200, 1.05}}, 1'000'000);
}

TEST(Rng, ZipfMatchesLowerBoundAcrossCacheRebuilds) {
  expect_zipf_matches_lower_bound(15, {{200, 1.05}, {8, 1.2}}, 1'000'000);
}

// Flat and steep shapes, and n above the guide's 1024 buckets, where one
// bucket spans many ranks and the forward scan runs long.
TEST(Rng, ZipfMatchesLowerBoundAcrossManyShapes) {
  for (const std::size_t n : {3u, 20u, 1000u, 5000u}) {
    for (const double s : {0.5, 1.0, 2.5}) {
      SCOPED_TRACE(testing::Message() << "n " << n << ", s " << s);
      expect_zipf_matches_lower_bound(n, {{n, s}}, 20'000);
    }
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(9);
  Rng child = parent.fork();
  // The child should not replay the parent's stream.
  Rng parent_copy(9);
  (void)parent_copy.fork();
  EXPECT_DOUBLE_EQ(parent.uniform(0, 1), parent_copy.uniform(0, 1));
  (void)child;
}

// --- stats -------------------------------------------------------------------

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({1, 2, 3, 4});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile({5}, 37), 5.0);
}

TEST(Stats, BoxplotQuartilesAndOutliers) {
  std::vector<double> xs;
  for (int i = 1; i <= 29; ++i) xs.push_back(i);
  xs.push_back(1000.0);  // a clear outlier
  const BoxPlot b = boxplot(xs);
  EXPECT_NEAR(b.median, 15.5, 1e-9);
  EXPECT_EQ(b.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(b.outliers.front(), 1000.0);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 29.0);  // whisker excludes the outlier
}

TEST(Stats, ReductionPercent) {
  EXPECT_DOUBLE_EQ(reduction_percent(200, 150), 25.0);
  EXPECT_DOUBLE_EQ(reduction_percent(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(reduction_percent(100, 125), -25.0);
}

// --- streaming_quantile ------------------------------------------------------

TEST(StreamingQuantile, ExactRegimeMatchesPercentileBitForBit) {
  // Below the exact limit the accumulator must reproduce the
  // materialize-and-sort path exactly — the cluster summaries feed golden
  // byte-identity tests.
  Rng r(17);
  std::vector<double> xs;
  StreamingQuantile q({50.0, 95.0, 99.0}, 1000);
  for (int i = 0; i < 997; ++i) {
    const double v = r.exponential(30.0);
    xs.push_back(v);
    q.add(v);
  }
  EXPECT_EQ(q.count(), xs.size());
  EXPECT_EQ(q.quantile(50.0), percentile(xs, 50.0));
  EXPECT_EQ(q.quantile(95.0), percentile(xs, 95.0));
  EXPECT_EQ(q.quantile(99.0), percentile(xs, 99.0));
  // Any percentile is queryable in the exact regime, tracked or not.
  EXPECT_EQ(q.quantile(12.5), percentile(xs, 12.5));
  EXPECT_EQ(q.mean(), summarize(xs).mean);
}

TEST(StreamingQuantile, EstimatorRegimeTracksLargeSamples) {
  // Past the limit the P-squared markers take over: bounded memory, small
  // relative error. Exercise with 200k exponential draws (heavy tail).
  Rng r(23);
  std::vector<double> xs;
  StreamingQuantile q({50.0, 99.0}, 1024);
  for (int i = 0; i < 200000; ++i) {
    const double v = r.exponential(10.0);
    xs.push_back(v);
    q.add(v);
  }
  const double exact_p50 = percentile(xs, 50.0);
  const double exact_p99 = percentile(xs, 99.0);
  EXPECT_NEAR(q.quantile(50.0), exact_p50, 0.05 * exact_p50);
  EXPECT_NEAR(q.quantile(99.0), exact_p99, 0.05 * exact_p99);
  // The mean stays exact in either regime (plain running sum).
  EXPECT_DOUBLE_EQ(q.mean(), summarize(xs).mean);
}

TEST(StreamingQuantile, TinySamplesAndEmptyBehave) {
  StreamingQuantile q({50.0});
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.mean(), 0.0);
  q.add(7.0);
  EXPECT_EQ(q.quantile(50.0), 7.0);  // single sample: every percentile is it
  q.add(9.0);
  q.add(8.0);
  EXPECT_EQ(q.quantile(50.0), 8.0);
  EXPECT_DOUBLE_EQ(q.mean(), 8.0);
}

// --- table -------------------------------------------------------------------

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.2345, 2)});
  t.add_row({"b", Table::pct(27.04, 1)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("27.0%"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream os;
  EXPECT_NO_THROW(t.print(os));
}

// --- stale_queue -------------------------------------------------------------

TEST(StaleQueue, FifoOrderAndExactCount) {
  StaleQueue<int> q;
  q.push(3);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.live_count(), 3);
  EXPECT_TRUE(q.contains(1));
  EXPECT_EQ(q.pop(), std::optional<int>(3));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.live_count(), 0);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(StaleQueue, InvalidateIsLazyAndIdempotent) {
  StaleQueue<int> q;
  q.push(10);
  q.push(11);
  EXPECT_TRUE(q.invalidate(10));
  EXPECT_FALSE(q.invalidate(10));  // already stale: no-op
  EXPECT_FALSE(q.invalidate(99));  // never queued: no-op
  EXPECT_EQ(q.live_count(), 1);
  EXPECT_FALSE(q.contains(10));
  // The stale entry is still physically queued until a pop scans past it.
  EXPECT_EQ(q.queued_entries(), 2u);
  EXPECT_EQ(q.pop(), std::optional<int>(11));
  EXPECT_EQ(q.queued_entries(), 0u);
}

TEST(StaleQueue, AbaReentryJoinsAtTheBack) {
  // The queue-jump bug the generation tag exists to kill: a key that leaves
  // the pool and re-enters must queue behind everyone, not revive its old
  // (earlier) entry.
  StaleQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_TRUE(q.invalidate(1));
  q.push(1);  // re-entry: fresh generation, at the back
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_FALSE(q.pop().has_value());
  // The superseded generation-1 entry for key 1 must not double-deliver.
  EXPECT_EQ(q.live_count(), 0);
}

TEST(StaleQueue, RepushDeliversEarliestSurvivingEntry) {
  // Predicate semantics: invalidation is revocable, so a repush makes the
  // key's *original* entry deliverable again — it does not lose its place.
  StaleQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_TRUE(q.invalidate(1));
  q.repush(1);  // duplicate at the back; the front entry is live again
  EXPECT_EQ(q.queued_entries(), 3u);
  EXPECT_EQ(q.live_count(), 2);
  EXPECT_EQ(q.pop(), std::optional<int>(1));  // front position, not the back
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  // The latent duplicate for 1 must not double-deliver.
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.queued_entries(), 0u);
}

TEST(StaleQueue, RepushAfterScanDiscardStartsOverAtTheBack) {
  StaleQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_TRUE(q.invalidate(1));
  // Pop scans past the dead entry for 1, physically discarding it.
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  q.repush(1);  // nothing left to resurrect: lands behind 3
  EXPECT_EQ(q.pop(), std::optional<int>(3));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
}

TEST(StaleQueue, RepushRoundTripsPreserveOnePositionAtATime) {
  // Several invalidate/repush round trips: each consumes one surviving
  // duplicate, earliest first — mirroring a pending task that is assigned,
  // requeued, and reassigned through the same node queue.
  StaleQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.pop(), std::optional<int>(1));  // assigned
  q.repush(1);                                // requeued: behind 2 now
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.live_count(), 0);
}

TEST(StaleQueue, PopConsumesThenInvalidateIsNoOp) {
  // The master pops a key, assigns it, then retires it from *every* queue it
  // might still sit in — including the one just popped. That second retire
  // must not corrupt the count.
  StaleQueue<int> q;
  q.push(5);
  EXPECT_EQ(q.pop(), std::optional<int>(5));
  EXPECT_FALSE(q.invalidate(5));
  EXPECT_EQ(q.live_count(), 0);
}

TEST(StaleQueue, PeekSkipsStalePrefixWithoutConsuming) {
  StaleQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_TRUE(q.invalidate(1));
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(*q.peek(), 2);
  EXPECT_EQ(q.live_count(), 1);          // peek consumed nothing
  EXPECT_EQ(q.queued_entries(), 2u);     // stale prefix left in place
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.peek(), nullptr);
}

TEST(StaleQueue, ManyGenerationsOfSameKey) {
  StaleQueue<int> q;
  for (int round = 0; round < 5; ++round) {
    q.push(7);
    EXPECT_TRUE(q.invalidate(7));
  }
  q.push(7);
  EXPECT_EQ(q.live_count(), 1);
  // Only the newest generation is delivered; the five stale entries are
  // silently discarded on the way.
  EXPECT_EQ(q.pop(), std::optional<int>(7));
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.queued_entries(), 0u);
}

// --- epoch -------------------------------------------------------------------

TEST(Epoch, TicketsValidUntilBumped) {
  Epoch e;
  const Epoch::Ticket t = e.ticket();
  EXPECT_TRUE(e.valid(t));
  e.bump();
  EXPECT_FALSE(e.valid(t));
  EXPECT_TRUE(e.valid(e.ticket()));
}

TEST(Epoch, BumpReturnsTheNewEpoch) {
  Epoch e;
  const Epoch::Ticket t1 = e.bump();
  EXPECT_TRUE(e.valid(t1));
  const Epoch::Ticket t2 = e.bump();
  EXPECT_NE(t1, t2);
  EXPECT_FALSE(e.valid(t1));
  EXPECT_TRUE(e.valid(t2));
}

TEST(Epoch, StaleCallbackGuardIdiom) {
  // The armed-callback pattern: capture a ticket, bump on teardown, and the
  // late-firing closure must see itself invalidated.
  Epoch e;
  int fired = 0;
  const Epoch::Ticket armed = e.ticket();
  auto callback = [&] {
    if (!e.valid(armed)) return;
    ++fired;
  };
  callback();
  EXPECT_EQ(fired, 1);
  e.bump();  // world torn down and rebuilt
  callback();
  EXPECT_EQ(fired, 1);  // neutralized, not re-fired
}

// --- args --------------------------------------------------------------------

std::vector<const char*> argv_of(std::initializer_list<const char*> parts) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), parts);
  return v;
}

TEST(Args, ParsesSpaceAndEqualsForms) {
  const auto v = argv_of({"--seeds", "12", "--code=rs:6,4", "file.txt"});
  const Args args(static_cast<int>(v.size()), v.data());
  EXPECT_EQ(args.get_int("seeds", 0), 12);
  EXPECT_EQ(args.get_or("code", ""), "rs:6,4");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file.txt");
}

TEST(Args, DefaultsWhenAbsent) {
  const auto v = argv_of({});
  const Args args(static_cast<int>(v.size()), v.data());
  EXPECT_EQ(args.get_int("seeds", 30), 30);
  EXPECT_DOUBLE_EQ(args.get_double("shuffle", 0.01), 0.01);
  EXPECT_FALSE(args.get("anything").has_value());
  EXPECT_FALSE(args.has("flag"));
}

TEST(Args, BooleanFlagWithoutValue) {
  const auto v = argv_of({"--normalize", "--seeds", "3"});
  const Args args(static_cast<int>(v.size()), v.data());
  EXPECT_TRUE(args.has("normalize"));
  EXPECT_EQ(args.get_int("seeds", 0), 3);
}

TEST(Args, UnrecognizedReportsUnqueriedFlags) {
  const auto v = argv_of({"--seeds", "3", "--tpyo", "x"});
  const Args args(static_cast<int>(v.size()), v.data());
  (void)args.get_int("seeds", 0);
  const auto unknown = args.unrecognized();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "tpyo");
}

TEST(Args, SplitBasics) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("lone", ','), (std::vector<std::string>{"lone"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{}));
  EXPECT_EQ(split("x,,y", ','), (std::vector<std::string>{"x", "", "y"}));
}

// --- flag table --------------------------------------------------------------

struct ToolFlags {
  int racks = 4;
  double heartbeat = 3.0;
  std::vector<double> time{20.0, 1.0};
  std::vector<double> shares;
  double alpha = 0.0;
  std::string contention = "fair";
  std::optional<std::string> csv;
  bool speculate = false;
  FlagTable table{"tool", "test tool"};

  ToolFlags() {
    table.integer("racks", &racks, "[1,inf)", "racks");
    table.number("heartbeat", &heartbeat, "(0,inf)", "seconds");
    table.numbers("time", &time, {"(0,inf)", "[0,inf)"}, "MEAN,SD");
    table.numbers("shares", &shares, {"(0,inf)"}, "weights");
    table.number("alpha", &alpha, "0|(1,inf)", "0 or > 1");
    table.choice("contention", &contention, {"fair", "fifo"}, "model");
    table.text("csv", &csv, "path");
    table.toggle("speculate", &speculate, "on/off");
  }

  // Parses `parts`; returns the exit status (-1 = run) and captures stderr.
  int parse(const std::vector<const char*>& parts, std::string* err) {
    std::vector<const char*> v{"prog"};
    v.insert(v.end(), parts.begin(), parts.end());
    ::testing::internal::CaptureStderr();
    const auto status = table.parse(static_cast<int>(v.size()), v.data());
    *err = ::testing::internal::GetCapturedStderr();
    return status.value_or(-1);
  }
};

TEST(FlagTable, FillsTargetsAndKeepsDefaults) {
  ToolFlags f;
  std::string err;
  EXPECT_EQ(f.parse({"--racks", "3", "--time=10,0", "--contention", "fifo",
                     "--csv", "out", "--speculate", "--shares", "3,1"},
                    &err),
            -1);
  EXPECT_EQ(err, "");
  EXPECT_EQ(f.racks, 3);
  EXPECT_DOUBLE_EQ(f.heartbeat, 3.0);
  EXPECT_EQ(f.time, (std::vector<double>{10.0, 0.0}));
  EXPECT_EQ(f.shares, (std::vector<double>{3.0, 1.0}));
  EXPECT_EQ(f.contention, "fifo");
  EXPECT_EQ(f.csv, "out");
  EXPECT_TRUE(f.speculate);
}

TEST(FlagTable, RejectsMalformedValuesNamingFlagAndBound) {
  const std::vector<std::vector<const char*>> bad = {
      {"--racks", "3x"},      {"--racks", "abc"},   {"--racks", "0"},
      {"--racks", " 3"},      {"--racks", "99999999999"},
      {"--racks", "2x"},      {"--racks", " 4"},    {"--racks", "4.0"},
      {"--racks", "-3"},      {"--racks", "99999999999999999999"},
      {"--heartbeat", "nan"}, {"--heartbeat", "inf"},
      {"--heartbeat", "0"},   {"--heartbeat", ""},
      {"--time", "10"},       {"--time", "0,1"},    {"--time", "10,-1"},
      {"--shares", "1,,2"},   {"--shares", "1,0"},
      {"--contention", "bogus"}};
  std::string err;
  for (const auto& args : bad) {
    EXPECT_EQ(ToolFlags().parse(args, &err), 1) << args[0] << " " << args[1];
    EXPECT_NE(err.find(std::string(args[0]) + ":"), std::string::npos) << err;
    EXPECT_EQ(err.rfind("tool: ", 0), 0u) << err;
  }
  ToolFlags f;
  f.parse({"--heartbeat", "nan"}, &err);
  EXPECT_EQ(err,
            "tool: --heartbeat: expected num in (0,inf), got 'nan'\n");
  f.parse({"--time", "1,2,3"}, &err);
  EXPECT_NE(err.find("expected num,num in (0,inf)x[0,inf)"),
            std::string::npos)
      << err;
}

TEST(FlagTable, RejectsCommandLineShapeErrors) {
  std::string err;
  EXPECT_EQ(ToolFlags().parse({"--racks"}, &err), 1);
  EXPECT_NE(err.find("--racks: missing value"), std::string::npos) << err;
  EXPECT_EQ(ToolFlags().parse({"--racks", "--speculate"}, &err), 1);
  EXPECT_NE(err.find("--racks: missing value"), std::string::npos) << err;
  EXPECT_EQ(ToolFlags().parse({"--tpyo", "1"}, &err), 1);
  EXPECT_NE(err.find("unknown flag --tpyo"), std::string::npos) << err;
  EXPECT_EQ(ToolFlags().parse({"stray"}, &err), 1);
  EXPECT_NE(err.find("'stray'"), std::string::npos) << err;
  // A switch takes no value, so a following token is a stray positional.
  EXPECT_EQ(ToolFlags().parse({"--speculate", "yes"}, &err), 1);
  EXPECT_NE(err.find("'yes'"), std::string::npos) << err;
  EXPECT_EQ(ToolFlags().parse({"--speculate=yes"}, &err), 1);
  EXPECT_NE(err.find("--speculate takes no value"), std::string::npos);
  EXPECT_EQ(ToolFlags().parse({"--racks", "2", "--racks", "3"}, &err), 1);
  EXPECT_NE(err.find("--racks given more than once"), std::string::npos);
}

TEST(FlagTable, CollectsPositionalsWhenAsked) {
  ToolFlags f;
  const auto v = argv_of({"encode", "--racks", "2", "in", "out"});
  std::vector<std::string> pos;
  EXPECT_FALSE(f.table.parse(static_cast<int>(v.size()), v.data(), &pos));
  EXPECT_EQ(pos, (std::vector<std::string>{"encode", "in", "out"}));
  EXPECT_EQ(f.racks, 2);
}

TEST(FlagTable, HelpListsEveryRowWithKindRangeAndDefault) {
  ToolFlags f;
  ::testing::internal::CaptureStdout();
  std::string err;
  EXPECT_EQ(f.parse({"--racks", "bad", "--help"}, &err), 0);
  const std::string help = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(err, "");
  EXPECT_EQ(help.rfind("tool - test tool\n", 0), 0u) << help;
  for (const char* row :
       {"--racks       int      [1,inf)          4",
        "--heartbeat   num      (0,inf)          3",
        "--time        num,num  (0,inf)x[0,inf)  20,1",
        "--shares      num,...  (0,inf)          -",
        "--contention  choice   fair|fifo        fair",
        "--csv         text     -                -",
        "--speculate   switch   -                off"}) {
    EXPECT_NE(help.find(row), std::string::npos) << row << "\n" << help;
  }
}

TEST(FlagTable, BoundsAcceptOneExtraPoint) {
  std::string err;
  for (const char* ok : {"0", "1.5", "1e9"}) {
    ToolFlags f;
    EXPECT_EQ(f.parse({"--alpha", ok}, &err), -1) << ok << err;
  }
  for (const char* bad : {"1", "0.5", "-1"}) {
    EXPECT_EQ(ToolFlags().parse({"--alpha", bad}, &err), 1) << bad;
    EXPECT_NE(err.find("0|(1,inf)"), std::string::npos) << err;
  }
}

TEST(FlagTable, MalformedBoundIsAProgrammingError) {
  FlagTable table("tool", "test tool");
  int v = 0;
  EXPECT_THROW(table.integer("x", &v, "1,inf", "no brackets"),
               std::invalid_argument);
  EXPECT_THROW(table.integer("x", &v, "[a,inf)", "bad number"),
               std::invalid_argument);
}

TEST(FlagTable, DefaultOutsideBoundIsAProgrammingError) {
  FlagTable table("tool", "test tool");
  int seeds = 0;
  EXPECT_THROW(table.integer("seeds", &seeds, "[1,inf)", "runs"),
               std::logic_error);
  double frac = 1.0;
  EXPECT_THROW(table.number("frac", &frac, "[0,1)", "share"),
               std::logic_error);
  std::vector<double> time{20.0, -1.0};
  EXPECT_THROW(table.numbers("time", &time, {"(0,inf)", "[0,inf)"}, "MEAN,SD"),
               std::logic_error);
  std::vector<double> one{20.0};
  EXPECT_THROW(table.numbers("one", &one, {"(0,inf)", "[0,inf)"}, "MEAN,SD"),
               std::logic_error);
  std::vector<double> shares{1.0, 0.0};
  EXPECT_THROW(table.numbers("shares", &shares, {"(0,inf)"}, "weights"),
               std::logic_error);
  // The one extra point of "0|(1,inf)" and an empty list are valid defaults.
  double alpha = 0.0;
  EXPECT_NO_THROW(table.number("alpha", &alpha, "0|(1,inf)", "0 or > 1"));
  std::vector<double> none;
  EXPECT_NO_THROW(table.numbers("none", &none, {"(0,inf)"}, "weights"));
}

TEST(FlagTable, ChoiceDefaultOutsideOptionsIsAProgrammingError) {
  FlagTable table("tool", "test tool");
  std::string model = "fare";
  EXPECT_THROW(table.choice("contention", &model, {"fair", "fifo"}, "model"),
               std::logic_error);
  std::string unset;
  EXPECT_THROW(table.choice("sources", &unset, {"random", "samerack"}, "x"),
               std::logic_error);
}

TEST(FlagTable, GivenNamesTheFlagsOnTheCommandLine) {
  ToolFlags f;
  std::string err;
  EXPECT_EQ(f.parse({"--racks", "4", "--speculate"}, &err), -1);
  // --racks was given with its default value; --heartbeat kept its default.
  EXPECT_TRUE(f.table.given("racks"));
  EXPECT_TRUE(f.table.given("speculate"));
  EXPECT_FALSE(f.table.given("heartbeat"));
  EXPECT_THROW(static_cast<void>(f.table.given("tpyo")), std::logic_error);
}

TEST(Jsonl, RecordShapeMatchesInlineStreaming) {
  std::ostringstream os;
  JsonlWriter w(os);
  w.begin("job").field("id", 3).field("runtime", 12.5).end();
  w.flush();
  EXPECT_EQ(os.str(), "{\"type\":\"job\",\"id\":3,\"runtime\":12.5}\n");
}

TEST(Jsonl, DestructorFlushesBufferedRecords) {
  std::ostringstream os;
  {
    JsonlWriter w(os);
    w.begin("job").field("id", 1).end();
    // Small output sits in the writer's buffer until a flush boundary.
    EXPECT_EQ(os.str(), "");
  }
  EXPECT_EQ(os.str(), "{\"type\":\"job\",\"id\":1}\n");
}

TEST(Jsonl, FlushDrainsPartialRecordBeforeDirectStreamUse) {
  std::ostringstream os;
  JsonlWriter w(os);
  w.begin("t").field("a", 1);
  w.flush();  // contract: flush before writing to the stream directly
  os << "|";
  w.field("b", 2).end();
  w.flush();
  EXPECT_EQ(os.str(), "{\"type\":\"t\",\"a\":1|,\"b\":2}\n");
}

TEST(Jsonl, CapturesStreamFormattingStateAtConstruction) {
  // Values must render exactly as `os << v` would have at the time the
  // writer was created, even though they are formatted internally now.
  std::ostringstream os;
  os.precision(10);
  JsonlWriter w(os);
  w.begin("t").field("v", 0.1234567891234).end();
  w.flush();
  EXPECT_EQ(os.str(), "{\"type\":\"t\",\"v\":0.1234567891}\n");
}

TEST(Jsonl, ManyRecordsMatchInlineStreamingByteForByte) {
  // Regression for the buffered rewrite: a multi-flush-window stream of
  // records must be byte-identical to the unbuffered inline chains.
  std::ostringstream inline_os;
  std::ostringstream os;
  {
    JsonlWriter w(os);
    for (int i = 0; i < 20000; ++i) {
      const double t = i * 0.137;
      w.begin("map").field("id", i).field("finish", t).end();
      inline_os << "{\"type\":\"map\",\"id\":" << i << ",\"finish\":" << t
                << "}\n";
    }
    // A 20k-record run crosses the flush threshold several times; some of
    // it must already have drained before destruction.
    EXPECT_NE(os.str(), "");
  }
  EXPECT_EQ(os.str(), inline_os.str());
}

TEST(Jsonl, NumbersUseDefaultStreamFormatting) {
  // The golden-corpus tests diff tool output byte-for-byte, so the writer
  // must not alter the ostream defaults (6 significant digits, no forced
  // decimal point) that the inline chains relied on.
  std::ostringstream inline_os;
  inline_os << 0.1 + 0.2 << ',' << 1234567.0 << ',' << 3.0;
  std::ostringstream os;
  JsonlWriter w(os);
  w.begin("t")
      .field("a", 0.1 + 0.2)
      .field("b", 1234567.0)
      .field("c", 3.0)
      .end();
  w.flush();
  EXPECT_EQ(os.str(),
            "{\"type\":\"t\",\"a\":0.3,\"b\":1.23457e+06,\"c\":3}\n");
  EXPECT_EQ(inline_os.str(), "0.3,1.23457e+06,3");
}

TEST(Jsonl, TextFieldsAreQuotedAndEscaped) {
  std::ostringstream os;
  JsonlWriter w(os);
  w.begin("t").text("kind", "deg\"raded\\x\n").end();
  w.flush();
  EXPECT_EQ(os.str(), "{\"type\":\"t\",\"kind\":\"deg\\\"raded\\\\x\\n\"}\n");
}

TEST(Jsonl, ArraysAndConditionalFieldsCompose) {
  std::ostringstream os;
  JsonlWriter w(os);
  const std::vector<int> nodes{4, 7};
  const std::vector<int> none;
  w.begin("failure").array("nodes", nodes).field("rack", 0);
  const int jobs_failed = 2;
  if (jobs_failed > 0) w.field("jobs_failed", jobs_failed);
  w.end();
  w.begin("failure").array("nodes", none).end();
  w.flush();
  EXPECT_EQ(os.str(),
            "{\"type\":\"failure\",\"nodes\":[4,7],\"rack\":0,"
            "\"jobs_failed\":2}\n"
            "{\"type\":\"failure\",\"nodes\":[]}\n");
}

}  // namespace
}  // namespace dfs::util
