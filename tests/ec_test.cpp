#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <cstring>
#include <tuple>

#include "dfs/ec/cauchy.h"
#include "dfs/ec/gf65536.h"
#include "dfs/ec/gf256.h"
#include "dfs/ec/gf256_kernels.h"
#include "dfs/ec/hitchhiker.h"
#include "dfs/ec/linear_code.h"
#include "dfs/ec/lrc.h"
#include "dfs/ec/matrix.h"
#include "dfs/ec/reed_solomon.h"
#include "dfs/ec/registry.h"
#include "dfs/ec/wide_rs.h"
#include "dfs/util/rng.h"

namespace dfs::ec {
namespace {

std::vector<Shard> random_shards(util::Rng& rng, int count, std::size_t len) {
  std::vector<Shard> shards(static_cast<std::size_t>(count), Shard(len));
  for (auto& s : shards) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return shards;
}

/// All shards of a stripe: natives followed by parity.
std::vector<Shard> full_stripe(const ErasureCode& code,
                               const std::vector<Shard>& data) {
  std::vector<Shard> all = data;
  for (auto& p : code.encode(data)) all.push_back(std::move(p));
  return all;
}

// --- gf256 ---------------------------------------------------------------------

TEST(Gf256, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256::mul(x, 1), x);
    EXPECT_EQ(gf256::mul(1, x), x);
    EXPECT_EQ(gf256::mul(x, 0), 0);
  }
}

TEST(Gf256, MulCommutative) {
  util::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(gf256::mul(a, b), gf256::mul(b, a));
  }
}

TEST(Gf256, MulAssociative) {
  util::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto c = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(gf256::mul(gf256::mul(a, b), c),
              gf256::mul(a, gf256::mul(b, c)));
  }
}

TEST(Gf256, DistributesOverXor) {
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto c = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(gf256::mul(a, gf256::add(b, c)),
              gf256::add(gf256::mul(a, b), gf256::mul(a, c)));
  }
}

TEST(Gf256, InverseRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256::mul(x, gf256::inv(x)), 1) << a;
    EXPECT_EQ(gf256::div(x, x), 1);
  }
}

TEST(Gf256, DivIsMulByInverse) {
  util::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    EXPECT_EQ(gf256::div(a, b), gf256::mul(a, gf256::inv(b)));
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (int a = 1; a < 256; a += 7) {
    std::uint8_t acc = 1;
    for (unsigned e = 0; e < 300; ++e) {
      EXPECT_EQ(gf256::pow(static_cast<std::uint8_t>(a), e), acc);
      acc = gf256::mul(acc, static_cast<std::uint8_t>(a));
    }
  }
}

TEST(Gf256, MulAddRegionMatchesScalar) {
  util::Rng rng(5);
  Shard dst(333), src(333), expect(333);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    src[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const std::uint8_t c = 0x57;
  for (std::size_t i = 0; i < src.size(); ++i) {
    expect[i] = gf256::add(dst[i], gf256::mul(c, src[i]));
  }
  gf256::mul_add_region(dst.data(), src.data(), c, dst.size());
  EXPECT_EQ(dst, expect);
}

TEST(Gf256, ExhaustiveAgainstCarrylessReference) {
  // Reference: schoolbook polynomial multiplication mod x^8+x^4+x^3+x^2+1.
  auto ref_mul = [](std::uint8_t a, std::uint8_t b) {
    unsigned acc = 0;
    unsigned aa = a;
    for (int bit = 0; bit < 8; ++bit) {
      if ((b >> bit) & 1u) acc ^= aa << bit;
    }
    for (int bit = 15; bit >= 8; --bit) {
      if ((acc >> bit) & 1u) acc ^= 0x11Du << (bit - 8);
    }
    return static_cast<std::uint8_t>(acc);
  };
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(gf256::mul(static_cast<std::uint8_t>(a),
                           static_cast<std::uint8_t>(b)),
                ref_mul(static_cast<std::uint8_t>(a),
                        static_cast<std::uint8_t>(b)))
          << a << " * " << b;
    }
  }
}

// --- matrix ---------------------------------------------------------------------

TEST(Matrix, IdentityInverse) {
  const Matrix i = Matrix::identity(6);
  const auto inv = i.inverted();
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(*inv, i);
}

TEST(Matrix, InvertRoundTrip) {
  util::Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix m(5, 5);
    for (int r = 0; r < 5; ++r) {
      for (int c = 0; c < 5; ++c) {
        m.set(r, c, static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
    }
    const auto inv = m.inverted();
    if (!inv) continue;  // singular random matrix; skip
    EXPECT_EQ(m.multiply(*inv), Matrix::identity(5));
    EXPECT_EQ(inv->multiply(m), Matrix::identity(5));
  }
}

TEST(Matrix, SingularReturnsNullopt) {
  Matrix m(3, 3);  // all zeros
  EXPECT_FALSE(m.inverted().has_value());
  Matrix dup(2, 2);  // duplicate rows
  dup.set(0, 0, 7);
  dup.set(0, 1, 9);
  dup.set(1, 0, 7);
  dup.set(1, 1, 9);
  EXPECT_FALSE(dup.inverted().has_value());
}

TEST(Matrix, VandermondeSquareInvertible) {
  for (int k = 1; k <= 20; ++k) {
    EXPECT_TRUE(Matrix::vandermonde(k, k).inverted().has_value()) << k;
  }
}

TEST(Matrix, CauchyAllEntriesNonzero) {
  const Matrix c = Matrix::cauchy(8, 12);
  for (int r = 0; r < 8; ++r) {
    for (int col = 0; col < 12; ++col) EXPECT_NE(c.at(r, col), 0);
  }
}

TEST(Matrix, RankOfProjection) {
  Matrix m(3, 4);
  m.set(0, 0, 1);
  m.set(1, 1, 2);
  m.set(2, 0, 1);  // row 2 == row 0
  EXPECT_EQ(rank(m), 2);
  EXPECT_EQ(rank(Matrix::identity(4)), 4);
  EXPECT_EQ(rank(Matrix(3, 3)), 0);
}

TEST(Matrix, SelectRowsAndAppend) {
  Matrix m = Matrix::vandermonde(4, 3);
  const Matrix sel = m.select_rows({2, 0});
  EXPECT_EQ(sel.rows(), 2);
  EXPECT_EQ(sel.at(0, 1), m.at(2, 1));
  EXPECT_EQ(sel.at(1, 1), m.at(0, 1));
  Matrix top = Matrix::identity(3);
  top.append_rows(sel);
  EXPECT_EQ(top.rows(), 5);
  EXPECT_EQ(top.at(4, 1), m.at(0, 1));
}

// --- Reed-Solomon (parameterized over the paper's coding schemes) ------------------

class RsParamTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RsParamTest, EncodeDecodeAllSingleLosses) {
  const auto [n, k] = GetParam();
  const ReedSolomonCode code(n, k);
  util::Rng rng(100);
  const auto data = random_shards(rng, k, 64);
  const auto stripe = full_stripe(code, data);

  for (int lost = 0; lost < n; ++lost) {
    // Degraded read: any k survivors rebuild the lost shard.
    std::vector<std::pair<int, const Shard*>> present;
    for (int i = 0; i < n && static_cast<int>(present.size()) < k; ++i) {
      if (i == lost) continue;
      present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
    }
    const auto rebuilt = code.reconstruct(present, {lost});
    ASSERT_TRUE(rebuilt.has_value()) << "lost=" << lost;
    EXPECT_EQ(rebuilt->front(), stripe[static_cast<std::size_t>(lost)]);
  }
}

TEST_P(RsParamTest, ToleratesAnyNMinusKLossesSampled) {
  const auto [n, k] = GetParam();
  const ReedSolomonCode code(n, k);
  util::Rng rng(200);
  const auto data = random_shards(rng, k, 40);
  const auto stripe = full_stripe(code, data);

  for (int trial = 0; trial < 25; ++trial) {
    const auto lost_idx =
        rng.sample_indices(static_cast<std::size_t>(n),
                           static_cast<std::size_t>(n - k));
    std::vector<bool> is_lost(static_cast<std::size_t>(n), false);
    std::vector<int> want;
    for (auto l : lost_idx) {
      is_lost[l] = true;
      want.push_back(static_cast<int>(l));
    }
    std::vector<std::pair<int, const Shard*>> present;
    for (int i = 0; i < n; ++i) {
      if (!is_lost[static_cast<std::size_t>(i)]) {
        present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
      }
    }
    const auto rebuilt = code.reconstruct(present, want);
    ASSERT_TRUE(rebuilt.has_value());
    for (std::size_t w = 0; w < want.size(); ++w) {
      EXPECT_EQ((*rebuilt)[w],
                stripe[static_cast<std::size_t>(want[w])]);
    }
  }
}

TEST_P(RsParamTest, PlanReadUsesKSources) {
  const auto [n, k] = GetParam();
  const ReedSolomonCode code(n, k);
  std::vector<int> available;
  for (int i = 1; i < n; ++i) available.push_back(i);
  const auto plan = code.recovery_plan(available, 0);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->options.size(), 1u);
  const auto& opt = plan->options.front();
  EXPECT_EQ(static_cast<int>(opt.sources.size()), k);
  EXPECT_DOUBLE_EQ(opt.total_fraction(), static_cast<double>(k));
  // Honors preference order: the first k available are chosen for MDS codes.
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ(opt.sources[static_cast<std::size_t>(i)].shard, i + 1);
    EXPECT_DOUBLE_EQ(opt.sources[static_cast<std::size_t>(i)].fraction, 1.0);
  }
}

TEST_P(RsParamTest, TooFewSurvivorsUndecodable) {
  const auto [n, k] = GetParam();
  const ReedSolomonCode code(n, k);
  util::Rng rng(300);
  const auto data = random_shards(rng, k, 16);
  const auto stripe = full_stripe(code, data);
  std::vector<std::pair<int, const Shard*>> present;
  for (int i = 1; i < k; ++i) {  // only k-1 survivors
    present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
  }
  EXPECT_FALSE(code.reconstruct(present, {0}).has_value());
  std::vector<int> avail;
  for (int i = 1; i < k; ++i) avail.push_back(i);
  EXPECT_FALSE(code.recovery_plan(avail, 0).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    PaperCodingSchemes, RsParamTest,
    ::testing::Values(std::make_tuple(4, 2), std::make_tuple(8, 6),
                      std::make_tuple(12, 9), std::make_tuple(12, 10),
                      std::make_tuple(16, 12), std::make_tuple(20, 15)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ReedSolomon, IsMdsSmallCodes) {
  EXPECT_TRUE(ReedSolomonCode(4, 2).is_mds());
  EXPECT_TRUE(ReedSolomonCode(8, 6).is_mds());
  EXPECT_TRUE(ReedSolomonCode(12, 9).is_mds());
}

TEST(ReedSolomon, SystematicPrefix) {
  const ReedSolomonCode code(8, 6);
  util::Rng rng(7);
  const auto data = random_shards(rng, 6, 24);
  // The first k shards of the stripe are the data itself (systematic).
  const auto stripe = full_stripe(code, data);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(stripe[static_cast<std::size_t>(i)],
              data[static_cast<std::size_t>(i)]);
  }
}

TEST(ReedSolomon, RejectsBadShapes) {
  EXPECT_THROW(ReedSolomonCode(2, 2), std::invalid_argument);
  EXPECT_THROW(ReedSolomonCode(2, 0), std::invalid_argument);
  const ReedSolomonCode code(4, 2);
  util::Rng rng(8);
  auto data = random_shards(rng, 2, 16);
  data[1].resize(8);
  EXPECT_THROW(code.encode(data), std::invalid_argument);
  EXPECT_THROW(code.encode({}), std::invalid_argument);
}

TEST(ReedSolomon, CanRegenerateParityShards) {
  const ReedSolomonCode code(6, 4);
  util::Rng rng(9);
  const auto data = random_shards(rng, 4, 32);
  const auto stripe = full_stripe(code, data);
  std::vector<std::pair<int, const Shard*>> present;
  for (int i = 0; i < 4; ++i) {
    present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
  }
  const auto parity = code.reconstruct(present, {4, 5});
  ASSERT_TRUE(parity.has_value());
  EXPECT_EQ((*parity)[0], stripe[4]);
  EXPECT_EQ((*parity)[1], stripe[5]);
}

// --- GF(2^16) and wide Reed-Solomon -------------------------------------------------

TEST(Gf65536, InverseRoundTripSampled) {
  util::Rng rng(21);
  for (int i = 0; i < 5000; ++i) {
    const auto a = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    EXPECT_EQ(gf65536::mul(a, gf65536::inv(a)), 1);
  }
}

TEST(Gf65536, FieldAxiomsSampled) {
  util::Rng rng(22);
  for (int i = 0; i < 5000; ++i) {
    const auto a = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    const auto b = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    const auto c = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    EXPECT_EQ(gf65536::mul(a, b), gf65536::mul(b, a));
    EXPECT_EQ(gf65536::mul(gf65536::mul(a, b), c),
              gf65536::mul(a, gf65536::mul(b, c)));
    EXPECT_EQ(gf65536::mul(a, gf65536::add(b, c)),
              gf65536::add(gf65536::mul(a, b), gf65536::mul(a, c)));
  }
}

TEST(Gf65536, GeneratorHasFullOrder) {
  // alpha = 2 generates the multiplicative group: 2^65535 == 1 and no
  // smaller power among the factor-of-65535 checkpoints is 1.
  EXPECT_EQ(gf65536::pow(2, 65535), 1);
  for (const unsigned d : {3u, 5u, 17u, 257u, 13107u, 21845u, 3855u}) {
    EXPECT_NE(gf65536::pow(2, 65535 / d), 1) << d;
  }
}

TEST(Gf65536, MulAddRegionMatchesScalar) {
  util::Rng rng(23);
  Shard dst(128), src(128), expect(128);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    src[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  expect = dst;
  const std::uint16_t c = 0x1e57;
  for (std::size_t i = 0; i < src.size(); i += 2) {
    std::uint16_t s, d;
    std::memcpy(&s, &src[i], 2);
    std::memcpy(&d, &expect[i], 2);
    d = gf65536::add(d, gf65536::mul(c, s));
    std::memcpy(&expect[i], &d, 2);
  }
  gf65536::mul_add_region(dst.data(), src.data(), c, dst.size());
  EXPECT_EQ(dst, expect);
}

TEST(WideRs, RoundTripBeyondGf256Limit) {
  // n = 300 shards is impossible over GF(256); GF(2^16) handles it.
  const WideReedSolomonCode code(300, 290);
  util::Rng rng(24);
  const auto data = random_shards(rng, 290, 16);
  const auto stripe = full_stripe(code, data);
  ASSERT_EQ(stripe.size(), 300u);
  // Lose 10 random shards (the maximum) and rebuild them all.
  const auto lost_idx = rng.sample_indices(300, 10);
  std::vector<bool> is_lost(300, false);
  std::vector<int> want;
  for (auto l : lost_idx) {
    is_lost[l] = true;
    want.push_back(static_cast<int>(l));
  }
  std::vector<std::pair<int, const Shard*>> present;
  for (int i = 0; i < 300; ++i) {
    if (!is_lost[static_cast<std::size_t>(i)]) {
      present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
    }
  }
  const auto rebuilt = code.reconstruct(present, want);
  ASSERT_TRUE(rebuilt.has_value());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ((*rebuilt)[w], stripe[static_cast<std::size_t>(want[w])]);
  }
}

TEST(WideRs, RejectsOddShardLength) {
  const WideReedSolomonCode code(6, 4);
  util::Rng rng(25);
  const auto data = random_shards(rng, 4, 15);  // odd length
  EXPECT_THROW(code.encode(data), std::invalid_argument);
}

TEST(WideRs, PlanReadUsesKSources) {
  const WideReedSolomonCode code(40, 32);
  std::vector<int> available;
  for (int i = 1; i < 40; ++i) available.push_back(i);
  const auto plan = code.recovery_plan(available, 0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(static_cast<int>(plan->options.front().sources.size()), 32);
}

TEST(WideRs, AgreesWithGf256RsWhereBothApply) {
  // For n <= 255 both constructions are MDS systematic RS; decodability and
  // read-cost behaviour must match even though the symbols differ.
  const WideReedSolomonCode wide(12, 9);
  const ReedSolomonCode narrow(12, 9);
  util::Rng rng(26);
  const auto data = random_shards(rng, 9, 32);
  const auto ws = full_stripe(wide, data);
  const auto ns = full_stripe(narrow, data);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(ws[static_cast<std::size_t>(i)], ns[static_cast<std::size_t>(i)]);
  }
  // Parity bytes differ (different fields), but both rebuild identically.
  for (const auto* stripe : {&ws, &ns}) {
    const ErasureCode& code =
        stripe == &ws ? static_cast<const ErasureCode&>(wide)
                      : static_cast<const ErasureCode&>(narrow);
    std::vector<std::pair<int, const Shard*>> present;
    for (int i = 3; i < 12; ++i) {
      present.emplace_back(i, &(*stripe)[static_cast<std::size_t>(i)]);
    }
    const auto rebuilt = code.reconstruct(present, {0, 1, 2});
    ASSERT_TRUE(rebuilt.has_value());
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ((*rebuilt)[static_cast<std::size_t>(i)],
                data[static_cast<std::size_t>(i)]);
    }
  }
}

// --- single parity & replication ---------------------------------------------------

TEST(SingleParity, XorRecoversAnyOne) {
  const auto code = make_single_parity(5);
  util::Rng rng(10);
  const auto data = random_shards(rng, 5, 16);
  const auto stripe = full_stripe(*code, data);
  for (int lost = 0; lost < 6; ++lost) {
    std::vector<std::pair<int, const Shard*>> present;
    for (int i = 0; i < 6; ++i) {
      if (i != lost) present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
    }
    const auto rebuilt = code->reconstruct(present, {lost});
    ASSERT_TRUE(rebuilt.has_value());
    EXPECT_EQ(rebuilt->front(), stripe[static_cast<std::size_t>(lost)]);
  }
}

TEST(Replication, CopiesAreIdentical) {
  const auto code = make_replication(3);
  util::Rng rng(11);
  const auto data = random_shards(rng, 1, 16);
  const auto parity = code->encode(data);
  ASSERT_EQ(parity.size(), 2u);
  EXPECT_EQ(parity[0], data[0]);
  EXPECT_EQ(parity[1], data[0]);
  // Reading a lost copy needs exactly one survivor.
  const auto plan = code->recovery_plan({2}, 0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->options.front().sources.size(), 1u);
}

// --- Cauchy Reed-Solomon (bit-matrix XOR path) --------------------------------------

class CrsParamTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CrsParamTest, RoundTripAllSingleLosses) {
  const auto [n, k] = GetParam();
  const CauchyReedSolomonCode code(n, k);
  util::Rng rng(400);
  const auto data = random_shards(rng, k, 64);  // multiple of 8
  const auto stripe = full_stripe(code, data);
  for (int lost = 0; lost < n; ++lost) {
    std::vector<std::pair<int, const Shard*>> present;
    for (int i = 0; i < n && static_cast<int>(present.size()) < k; ++i) {
      if (i != lost) present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
    }
    const auto rebuilt = code.reconstruct(present, {lost});
    ASSERT_TRUE(rebuilt.has_value()) << lost;
    EXPECT_EQ(rebuilt->front(), stripe[static_cast<std::size_t>(lost)]);
  }
}

TEST_P(CrsParamTest, MultiLossSampled) {
  const auto [n, k] = GetParam();
  const CauchyReedSolomonCode code(n, k);
  util::Rng rng(500);
  const auto data = random_shards(rng, k, 32);
  const auto stripe = full_stripe(code, data);
  for (int trial = 0; trial < 15; ++trial) {
    const auto lost_idx = rng.sample_indices(static_cast<std::size_t>(n),
                                             static_cast<std::size_t>(n - k));
    std::vector<bool> is_lost(static_cast<std::size_t>(n), false);
    std::vector<int> want;
    for (auto l : lost_idx) {
      is_lost[l] = true;
      want.push_back(static_cast<int>(l));
    }
    std::vector<std::pair<int, const Shard*>> present;
    for (int i = 0; i < n; ++i) {
      if (!is_lost[static_cast<std::size_t>(i)]) {
        present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
      }
    }
    const auto rebuilt = code.reconstruct(present, want);
    ASSERT_TRUE(rebuilt.has_value());
    for (std::size_t w = 0; w < want.size(); ++w) {
      EXPECT_EQ((*rebuilt)[w], stripe[static_cast<std::size_t>(want[w])]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CrsParamTest,
    ::testing::Values(std::make_tuple(4, 2), std::make_tuple(8, 6),
                      std::make_tuple(12, 10), std::make_tuple(14, 10)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Crs, RequiresAlignedShards) {
  const CauchyReedSolomonCode code(6, 4);
  util::Rng rng(12);
  const auto data = random_shards(rng, 4, 12);  // not a multiple of 8
  EXPECT_THROW(code.encode(data), std::invalid_argument);
}

TEST(Crs, PlanReadCostIsK) {
  const CauchyReedSolomonCode code(12, 10);
  std::vector<int> available;
  for (int i = 1; i < 12; ++i) available.push_back(i);
  const auto plan = code.recovery_plan(available, 0);
  ASSERT_TRUE(plan.has_value());
  const auto& opt = plan->options.front();
  EXPECT_EQ(opt.sources.size(), 10u);
  EXPECT_DOUBLE_EQ(opt.total_fraction(), 10.0);
}

TEST(Crs, AgreesWithMatrixRsOnDecodability) {
  // Both are MDS: any k-subset decodes. Spot-check agreement of plan sizes.
  const CauchyReedSolomonCode crs(10, 6);
  const ReedSolomonCode rs(10, 6);
  util::Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    auto avail = rng.sample_indices(10, 7);
    std::vector<int> a;
    for (auto v : avail) a.push_back(static_cast<int>(v));
    const int lost = [&] {
      for (int i = 0; i < 10; ++i) {
        if (std::find(a.begin(), a.end(), i) == a.end()) return i;
      }
      return -1;
    }();
    const auto p1 = crs.recovery_plan(a, lost);
    const auto p2 = rs.recovery_plan(a, lost);
    ASSERT_TRUE(p1.has_value());
    ASSERT_TRUE(p2.has_value());
    EXPECT_EQ(p1->options.front().sources.size(),
              p2->options.front().sources.size());
  }
}

// --- LRC -----------------------------------------------------------------------------

TEST(Lrc, SingleDataLossUsesLocalGroup) {
  // LRC(12, 2, 2): groups {0..5}, {6..11}; locals 12, 13; globals 14, 15.
  const LocalReconstructionCode code(12, 2, 2);
  EXPECT_EQ(code.n(), 16);
  EXPECT_EQ(code.group_size(), 6);
  std::vector<int> available;
  for (int i = 0; i < 16; ++i) {
    if (i != 3) available.push_back(i);
  }
  const auto plan = code.recovery_plan(available, 3);
  ASSERT_TRUE(plan.has_value());
  // The local-group option is listed first (preferred).
  const auto& local = plan->options.front();
  EXPECT_EQ(local.sources.size(), 6u);  // 5 group members + local parity
  EXPECT_DOUBLE_EQ(local.total_fraction(), 6.0);
  for (const auto& src : local.sources) {
    EXPECT_TRUE((src.shard >= 0 && src.shard < 6) || src.shard == 12)
        << src.shard;
  }
}

TEST(Lrc, LocalParityLossUsesGroupData) {
  const LocalReconstructionCode code(12, 2, 2);
  std::vector<int> available;
  for (int i = 0; i < 16; ++i) {
    if (i != 13) available.push_back(i);
  }
  const auto plan = code.recovery_plan(available, 13);
  ASSERT_TRUE(plan.has_value());
  const auto& local = plan->options.front();
  EXPECT_EQ(local.sources.size(), 6u);
  for (const auto& src : local.sources) {
    EXPECT_GE(src.shard, 6);
    EXPECT_LT(src.shard, 12);
  }
}

TEST(Lrc, FallsBackToGlobalDecodeWhenGroupBroken) {
  const LocalReconstructionCode code(12, 2, 2);
  // Lose shard 3 AND its local parity 12: the local repair path is gone.
  std::vector<int> available;
  for (int i = 0; i < 16; ++i) {
    if (i != 3 && i != 12) available.push_back(i);
  }
  const auto plan = code.recovery_plan(available, 3);
  ASSERT_TRUE(plan.has_value());
  // The local option is gone; only the global matrix decode remains.
  EXPECT_GT(plan->options.front().sources.size(), 6u);
}

TEST(Lrc, ReconstructsRealBytesLocally) {
  const LocalReconstructionCode code(8, 2, 2);
  util::Rng rng(14);
  const auto data = random_shards(rng, 8, 48);
  const auto stripe = full_stripe(code, data);
  // Lose data shard 1; rebuild from its group (0..3) + local parity 8.
  std::vector<std::pair<int, const Shard*>> present;
  for (int i : {0, 2, 3, 8}) {
    present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
  }
  const auto rebuilt = code.reconstruct(present, {1});
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->front(), stripe[1]);
}

TEST(Lrc, SurvivesUpToGlobalParityLosses) {
  const LocalReconstructionCode code(8, 2, 2);
  util::Rng rng(15);
  const auto data = random_shards(rng, 8, 32);
  const auto stripe = full_stripe(code, data);
  // Lose one data shard per group plus one global: 3 losses, decodable via
  // locals + remaining global.
  std::vector<std::pair<int, const Shard*>> present;
  std::vector<int> want = {0, 4, 10};
  for (int i = 0; i < 12; ++i) {
    if (std::find(want.begin(), want.end(), i) == want.end()) {
      present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
    }
  }
  const auto rebuilt = code.reconstruct(present, want);
  ASSERT_TRUE(rebuilt.has_value());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ((*rebuilt)[w], stripe[static_cast<std::size_t>(want[w])]);
  }
}

TEST(Lrc, RejectsBadParameters) {
  EXPECT_THROW(LocalReconstructionCode(12, 5, 2), std::invalid_argument);
  EXPECT_THROW(LocalReconstructionCode(12, 0, 2), std::invalid_argument);
}

// --- Hitchhiker-XOR ----------------------------------------------------------------

/// Slice a full shard down to the substripes a RecoverySource asks for,
/// exactly as a degraded reader would fetch them (ascending, concatenated).
Shard slice_shard(const Shard& full, unsigned substripes, int parts) {
  const std::size_t sub = full.size() / static_cast<std::size_t>(parts);
  Shard out;
  for (int s = 0; s < parts; ++s) {
    if (!(substripes & (1u << static_cast<unsigned>(s)))) continue;
    out.insert(out.end(),
               full.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(s) * sub),
               full.begin() + static_cast<std::ptrdiff_t>(
                                  (static_cast<std::size_t>(s) + 1) * sub));
  }
  return out;
}

/// Decode `lost` from the given recovery option, feeding the decoder only
/// the substripes the option says to fetch.
std::optional<std::vector<Shard>> decode_via_option(
    const ErasureCode& code, const std::vector<Shard>& stripe,
    const RecoveryOption& opt, int lost) {
  std::vector<Shard> sliced;
  sliced.reserve(opt.sources.size());
  for (const auto& src : opt.sources) {
    sliced.push_back(slice_shard(stripe[static_cast<std::size_t>(src.shard)],
                                 src.substripes, code.substripe_count()));
  }
  std::vector<ErasureCode::PresentSlice> present;
  for (std::size_t i = 0; i < opt.sources.size(); ++i) {
    present.push_back(
        {opt.sources[i].shard, opt.sources[i].substripes, &sliced[i]});
  }
  return code.reconstruct_slices(present, {lost});
}

TEST(Hitchhiker, RoundTripAllSingleLossesFullShards) {
  const HitchhikerXorCode code(14, 10);
  util::Rng rng(700);
  const auto data = random_shards(rng, 10, 64);
  const auto stripe = full_stripe(code, data);
  for (int lost = 0; lost < 14; ++lost) {
    std::vector<std::pair<int, const Shard*>> present;
    for (int i = 0; i < 14 && static_cast<int>(present.size()) < 10; ++i) {
      if (i != lost) present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
    }
    const auto rebuilt = code.reconstruct(present, {lost});
    ASSERT_TRUE(rebuilt.has_value()) << lost;
    EXPECT_EQ(rebuilt->front(), stripe[static_cast<std::size_t>(lost)]) << lost;
  }
}

TEST(Hitchhiker, MultiLossDecodableLikeRs) {
  // Any n - k = 4 erasures stay decodable: the code keeps RS fault tolerance.
  const HitchhikerXorCode code(14, 10);
  util::Rng rng(701);
  const auto data = random_shards(rng, 10, 32);
  const auto stripe = full_stripe(code, data);
  for (int trial = 0; trial < 12; ++trial) {
    const auto lost_idx = rng.sample_indices(14, 4);
    std::vector<bool> is_lost(14, false);
    std::vector<int> want;
    for (auto l : lost_idx) {
      is_lost[l] = true;
      want.push_back(static_cast<int>(l));
    }
    std::vector<std::pair<int, const Shard*>> present;
    for (int i = 0; i < 14; ++i) {
      if (!is_lost[static_cast<std::size_t>(i)]) {
        present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
      }
    }
    const auto rebuilt = code.reconstruct(present, want);
    ASSERT_TRUE(rebuilt.has_value());
    for (std::size_t w = 0; w < want.size(); ++w) {
      EXPECT_EQ((*rebuilt)[w], stripe[static_cast<std::size_t>(want[w])]);
    }
  }
}

TEST(Hitchhiker, GroupsPartitionDataShards) {
  const HitchhikerXorCode code(14, 10);
  EXPECT_EQ(code.substripe_count(), 2);
  EXPECT_EQ(code.piggyback_groups(), 3);  // parities 1..3 carry piggybacks
  int total = 0;
  for (int g = 0; g < code.piggyback_groups(); ++g) {
    EXPECT_GT(code.group_size(g), 0);
    total += code.group_size(g);
  }
  EXPECT_EQ(total, 10);
  for (int i = 0; i < 10; ++i) {
    const int g = code.group_of(i);
    EXPECT_GE(g, 0);
    EXPECT_LT(g, code.piggyback_groups());
  }
  // Balanced contiguous split of 10 over 3 groups: sizes 4, 3, 3.
  EXPECT_EQ(code.group_size(0), 4);
  EXPECT_EQ(code.group_size(1), 3);
  EXPECT_EQ(code.group_size(2), 3);
}

TEST(Hitchhiker, DataRepairDownloadsSubShards) {
  const HitchhikerXorCode code(14, 10);
  std::vector<int> available;
  for (int i = 1; i < 14; ++i) available.push_back(i);
  const auto plan = code.recovery_plan(available, 0);
  ASSERT_TRUE(plan.has_value());
  ASSERT_GE(plan->options.size(), 2u);
  // Preferred option: (k + |G_0|) / 2 = (10 + 4) / 2 = 7 shard-equivalents,
  // versus k = 10 for the full-shard fallback.
  const auto& sub = plan->options.front();
  EXPECT_DOUBLE_EQ(sub.total_fraction(), 7.0);
  EXPECT_LT(sub.total_fraction(), 10.0);
  const auto& fallback = plan->options.back();
  EXPECT_DOUBLE_EQ(fallback.total_fraction(), 10.0);
  // Group-mates of shard 0 (shards 1..3) are fetched whole; everything else
  // contributes a half shard.
  for (const auto& src : sub.sources) {
    if (src.shard >= 1 && src.shard <= 3) {
      EXPECT_DOUBLE_EQ(src.fraction, 1.0) << src.shard;
    } else {
      EXPECT_DOUBLE_EQ(src.fraction, 0.5) << src.shard;
    }
  }
}

TEST(Hitchhiker, SubShardRepairIsByteExact) {
  const HitchhikerXorCode code(14, 10);
  util::Rng rng(702);
  const auto data = random_shards(rng, 10, 128);
  const auto stripe = full_stripe(code, data);
  std::vector<int> all;
  for (int i = 0; i < 14; ++i) all.push_back(i);
  for (int lost = 0; lost < 10; ++lost) {
    std::vector<int> available;
    for (int i : all) {
      if (i != lost) available.push_back(i);
    }
    const auto plan = code.recovery_plan(available, lost);
    ASSERT_TRUE(plan.has_value()) << lost;
    const auto& opt = plan->options.front();
    EXPECT_LT(opt.total_fraction(), 10.0) << lost;
    const auto rebuilt = decode_via_option(code, stripe, opt, lost);
    ASSERT_TRUE(rebuilt.has_value()) << lost;
    EXPECT_EQ(rebuilt->front(), stripe[static_cast<std::size_t>(lost)]) << lost;
  }
}

TEST(Hitchhiker, FallsBackToFullShardsWhenSubSetBroken) {
  const HitchhikerXorCode code(14, 10);
  // Lose data shard 0 AND data shard 9 (outside 0's group): the sub-shard
  // set needs every other data shard's b-half, so only the fallback remains.
  std::vector<int> available;
  for (int i = 1; i < 14; ++i) {
    if (i != 9) available.push_back(i);
  }
  const auto plan = code.recovery_plan(available, 0);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->options.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->options.front().total_fraction(), 10.0);
}

TEST(Hitchhiker, ParityRepairUsesFullShards) {
  const HitchhikerXorCode code(14, 10);
  std::vector<int> available;
  for (int i = 0; i < 13; ++i) available.push_back(i);
  const auto plan = code.recovery_plan(available, 13);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->options.front().total_fraction(), 10.0);
}

TEST(Hitchhiker, RejectsOddShardLength) {
  const HitchhikerXorCode code(6, 4);
  util::Rng rng(703);
  const auto data = random_shards(rng, 4, 15);  // odd length
  EXPECT_THROW(code.encode(data), std::invalid_argument);
}

TEST(Hitchhiker, RejectsBadParameters) {
  EXPECT_THROW(HitchhikerXorCode(5, 4), std::invalid_argument);   // n-k < 2
  EXPECT_THROW(HitchhikerXorCode(4, 0), std::invalid_argument);
  EXPECT_THROW(HitchhikerXorCode(4, 4), std::invalid_argument);
}

// --- code spec registry -----------------------------------------------------------

TEST(Registry, ParsesEveryFamily) {
  EXPECT_EQ(make_code_from_spec("rs:20,15")->name(), "RS(20,15)");
  EXPECT_EQ(make_code_from_spec("rs16:300,290")->name(), "RS16(300,290)");
  EXPECT_EQ(make_code_from_spec("crs:12,10")->name(), "CRS(12,10)");
  EXPECT_EQ(make_code_from_spec("lrc:12,2,2")->name(), "LRC(k=12,l=2,r=2)");
  EXPECT_EQ(make_code_from_spec("hh:14,10")->name(), "HH-XOR(14,10)");
  EXPECT_EQ(make_code_from_spec("xor:5")->name(), "XOR(6,5)");
  EXPECT_EQ(make_code_from_spec("rep:3")->name(), "REP(3)");
}

TEST(Registry, MalformedSpecsReturnNull) {
  // Contract: nullptr iff the TEXT is malformed (unknown family, wrong
  // arity, or non-numeric parameters) — for every family, uniformly.
  EXPECT_EQ(make_code_from_spec(""), nullptr);
  EXPECT_EQ(make_code_from_spec("rs"), nullptr);
  EXPECT_EQ(make_code_from_spec("rs:12"), nullptr);
  EXPECT_EQ(make_code_from_spec("rs:12,10,3"), nullptr);
  EXPECT_EQ(make_code_from_spec("rs:12,ten"), nullptr);
  EXPECT_EQ(make_code_from_spec("rs:12,10x"), nullptr);
  EXPECT_EQ(make_code_from_spec("rs16:300"), nullptr);
  EXPECT_EQ(make_code_from_spec("crs:"), nullptr);
  EXPECT_EQ(make_code_from_spec("lrc:12,2"), nullptr);
  EXPECT_EQ(make_code_from_spec("hh:14"), nullptr);
  EXPECT_EQ(make_code_from_spec("hh:14,10,2"), nullptr);
  EXPECT_EQ(make_code_from_spec("xor:"), nullptr);
  EXPECT_EQ(make_code_from_spec("rep:three"), nullptr);
  EXPECT_EQ(make_code_from_spec("nope:1,2"), nullptr);
}

TEST(Registry, InvalidParametersThrow) {
  // Contract: std::invalid_argument iff the text parses but the NUMBERS are
  // invalid for the family.
  EXPECT_THROW(make_code_from_spec("rs:2,5"), std::invalid_argument);
  EXPECT_THROW(make_code_from_spec("rs16:2,5"), std::invalid_argument);
  EXPECT_THROW(make_code_from_spec("crs:2,5"), std::invalid_argument);
  EXPECT_THROW(make_code_from_spec("lrc:12,5,2"), std::invalid_argument);
  EXPECT_THROW(make_code_from_spec("hh:12,11"), std::invalid_argument);
  EXPECT_THROW(make_code_from_spec("xor:0"), std::invalid_argument);
  EXPECT_THROW(make_code_from_spec("rep:1"), std::invalid_argument);
}

TEST(Registry, HelpMentionsEveryFamily) {
  const std::string help = code_spec_help();
  for (const char* family : {"rs:", "rs16:", "crs:", "lrc:", "hh:", "xor:",
                             "rep:"}) {
    EXPECT_NE(help.find(family), std::string::npos) << family;
  }
}

// --- randomized loss-pattern property test over every registry family --------------

TEST(RecoveryPlanProperty, RandomLossPatternsDecodeByteExactly) {
  // For every code family: under random loss patterns, whenever the code
  // offers a RecoveryPlan, (a) each option only cites available shards,
  // (b) no option costs more than k full shards, and (c) fetching exactly
  // the bytes any option asks for rebuilds the lost shard byte-exactly.
  util::Rng rng(800);
  for (const char* spec : {"rs:6,4", "rs16:12,9", "crs:8,6", "lrc:8,2,2",
                           "hh:8,4", "hh:14,10", "xor:4", "rep:3"}) {
    const auto code = make_code_from_spec(spec);
    ASSERT_NE(code, nullptr) << spec;
    const int n = code->n();
    const int k = code->k();
    const auto data = random_shards(rng, k, 48);  // 48 = lcm-friendly length
    const auto stripe = full_stripe(*code, data);
    for (int trial = 0; trial < 40; ++trial) {
      const int losses = 1 + static_cast<int>(rng.uniform_int(0, n - k));
      const auto lost_idx = rng.sample_indices(static_cast<std::size_t>(n),
                                               static_cast<std::size_t>(losses));
      std::vector<bool> is_lost(static_cast<std::size_t>(n), false);
      for (auto l : lost_idx) is_lost[l] = true;
      std::vector<int> available;
      for (int i = 0; i < n; ++i) {
        if (!is_lost[static_cast<std::size_t>(i)]) available.push_back(i);
      }
      for (auto l : lost_idx) {
        const int lost = static_cast<int>(l);
        const auto plan = code->recovery_plan(available, lost);
        if (!plan.has_value()) continue;  // not decodable under this pattern
        ASSERT_FALSE(plan->options.empty()) << spec;
        for (const auto& opt : plan->options) {
          EXPECT_LE(opt.total_fraction(), static_cast<double>(k) + 1e-9)
              << spec << " lost=" << lost;
          for (const auto& src : opt.sources) {
            EXPECT_TRUE(std::find(available.begin(), available.end(),
                                  src.shard) != available.end())
                << spec << " cites unavailable shard " << src.shard;
            EXPECT_GT(src.fraction, 0.0);
            EXPECT_NE(src.substripes, 0u);
          }
          const auto rebuilt = decode_via_option(*code, stripe, opt, lost);
          ASSERT_TRUE(rebuilt.has_value()) << spec << " lost=" << lost;
          EXPECT_EQ(rebuilt->front(), stripe[static_cast<std::size_t>(lost)])
              << spec << " lost=" << lost;
        }
      }
    }
  }
}

TEST(Registry, ProducedCodesRoundTrip) {
  util::Rng rng(33);
  for (const char* spec : {"rs:6,4", "crs:6,4", "lrc:4,2,1", "xor:4"}) {
    const auto code = make_code_from_spec(spec);
    ASSERT_NE(code, nullptr) << spec;
    const auto data = random_shards(rng, code->k(), 32);
    const auto stripe = full_stripe(*code, data);
    std::vector<std::pair<int, const Shard*>> present;
    for (int i = 1; i < code->n(); ++i) {
      present.emplace_back(i, &stripe[static_cast<std::size_t>(i)]);
    }
    const auto rebuilt = code->reconstruct(present, {0});
    ASSERT_TRUE(rebuilt.has_value()) << spec;
    EXPECT_EQ(rebuilt->front(), stripe[0]) << spec;
  }
}

// --- gf256 region-kernel backends ------------------------------------------
// Every compiled-and-supported backend must be bit-identical to a scalar
// oracle computed straight from gf256::mul (not through the dispatcher), over
// lengths that stress each kernel's vector body, head/tail handling, and the
// strip loop, at unaligned offsets, including exact-alias calls.

void oracle_mul(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) dst[i] = gf256::mul(c, src[i]);
}

void oracle_mul_add(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                    std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ gf256::mul(c, src[i]));
  }
}

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> v(len);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return v;
}

std::vector<gf256::Backend> usable_backends() {
  std::vector<gf256::Backend> out;
  for (auto b : gf256::compiled_backends()) {
    if (gf256::backend_supported(b)) out.push_back(b);
  }
  return out;
}

// Lengths covering: empty, sub-vector, one vector block, off-by-one around
// the 16/32/64-byte SIMD steps, and around the 8 KiB strip boundary.
const std::size_t kKernelLens[] = {0,  1,  2,    3,    15,   16,   17,
                                   31, 32, 33,   63,   64,   65,   100,
                                   1000,   8191, 8192, 8193, 20000};
const std::size_t kKernelOffsets[] = {0, 1, 5, 15};
const std::uint8_t kKernelCoeffs[] = {0, 1, 2, 0x53, 0x8e, 0xff};

class GfKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { gf256::reset_backend(); }
};

TEST_F(GfKernelTest, ScalarAndTableAlwaysCompiled) {
  EXPECT_TRUE(gf256::backend_compiled(gf256::Backend::kScalar));
  EXPECT_TRUE(gf256::backend_compiled(gf256::Backend::kTable));
  EXPECT_TRUE(gf256::backend_supported(gf256::Backend::kScalar));
  EXPECT_TRUE(gf256::backend_supported(gf256::Backend::kTable));
}

TEST_F(GfKernelTest, SetBackendMatchesSupport) {
  for (int i = 0; i < gf256::kBackendCount; ++i) {
    const auto b = static_cast<gf256::Backend>(i);
    EXPECT_EQ(gf256::set_backend(b), gf256::backend_supported(b))
        << gf256::backend_name(b);
    if (gf256::backend_supported(b)) {
      EXPECT_EQ(gf256::active_backend(), b) << gf256::backend_name(b);
    }
  }
}

TEST_F(GfKernelTest, BackendNamesRoundTrip) {
  EXPECT_STREQ(gf256::backend_name(gf256::Backend::kScalar), "scalar");
  EXPECT_STREQ(gf256::backend_name(gf256::Backend::kTable), "table");
  EXPECT_STREQ(gf256::backend_name(gf256::Backend::kSsse3), "ssse3");
  EXPECT_STREQ(gf256::backend_name(gf256::Backend::kAvx2), "avx2");
}

TEST_F(GfKernelTest, SingleSourceKernelsMatchOracle) {
  util::Rng rng(77);
  for (const auto b : usable_backends()) {
    ASSERT_TRUE(gf256::set_backend(b));
    for (const std::size_t len : kKernelLens) {
      for (const std::size_t off : kKernelOffsets) {
        const auto src = random_bytes(rng, off + len);
        const auto dst0 = random_bytes(rng, off + len);
        const std::uint8_t c =
            kKernelCoeffs[rng.uniform_int(0, 5)];

        auto got = dst0;
        gf256::mul_add_region(got.data() + off, src.data() + off, c, len);
        auto want = dst0;
        oracle_mul_add(want.data() + off, src.data() + off, c, len);
        ASSERT_EQ(got, want) << gf256::backend_name(b) << " mul_add len="
                             << len << " off=" << off << " c=" << int{c};

        got = dst0;
        gf256::mul_region(got.data() + off, src.data() + off, c, len);
        want = dst0;
        oracle_mul(want.data() + off, src.data() + off, c, len);
        ASSERT_EQ(got, want) << gf256::backend_name(b) << " mul len=" << len
                             << " off=" << off << " c=" << int{c};

        got = dst0;
        gf256::xor_region(got.data() + off, src.data() + off, len);
        want = dst0;
        for (std::size_t i = 0; i < len; ++i) {
          want[off + i] = static_cast<std::uint8_t>(want[off + i] ^
                                                    src[off + i]);
        }
        ASSERT_EQ(got, want) << gf256::backend_name(b) << " xor len=" << len
                             << " off=" << off;
      }
    }
  }
}

TEST_F(GfKernelTest, ExactAliasingAllowed) {
  util::Rng rng(78);
  for (const auto b : usable_backends()) {
    ASSERT_TRUE(gf256::set_backend(b));
    for (const std::size_t len : {std::size_t{1}, std::size_t{33},
                                  std::size_t{8193}}) {
      for (const std::uint8_t c : kKernelCoeffs) {
        const auto orig = random_bytes(rng, len);

        auto buf = orig;
        gf256::mul_region(buf.data(), buf.data(), c, len);
        auto want = std::vector<std::uint8_t>(len);
        oracle_mul(want.data(), orig.data(), c, len);
        ASSERT_EQ(buf, want) << gf256::backend_name(b) << " alias mul c="
                             << int{c};

        buf = orig;
        gf256::mul_add_region(buf.data(), buf.data(), c, len);
        want = orig;
        for (std::size_t i = 0; i < len; ++i) {
          want[i] = static_cast<std::uint8_t>(want[i] ^
                                              gf256::mul(c, orig[i]));
        }
        ASSERT_EQ(buf, want) << gf256::backend_name(b) << " alias mul_add c="
                             << int{c};

        buf = orig;
        gf256::xor_region(buf.data(), buf.data(), len);
        ASSERT_TRUE(std::all_of(buf.begin(), buf.end(),
                                [](std::uint8_t v) { return v == 0; }))
            << gf256::backend_name(b) << " alias xor";
      }
    }
  }
}

TEST_F(GfKernelTest, MultiSourceKernelsMatchSequentialOracle) {
  util::Rng rng(79);
  for (const auto b : usable_backends()) {
    ASSERT_TRUE(gf256::set_backend(b));
    for (const std::size_t len : kKernelLens) {
      for (const std::size_t count :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{6}}) {
        std::vector<std::vector<std::uint8_t>> src_bufs;
        std::vector<const std::uint8_t*> srcs;
        std::vector<std::uint8_t> coeffs;
        for (std::size_t j = 0; j < count; ++j) {
          src_bufs.push_back(random_bytes(rng, len));
          srcs.push_back(src_bufs.back().data());
          // Bias toward interesting coefficients: 0 and 1 hit skip/xor paths.
          coeffs.push_back(kKernelCoeffs[rng.uniform_int(0, 5)]);
        }
        const auto dst0 = random_bytes(rng, len);

        auto got = dst0;
        gf256::mul_add_region_multi(got.data(), srcs.data(), coeffs.data(),
                                    count, len);
        auto want = dst0;
        for (std::size_t j = 0; j < count; ++j) {
          oracle_mul_add(want.data(), srcs[j], coeffs[j], len);
        }
        ASSERT_EQ(got, want) << gf256::backend_name(b) << " mul_add_multi len="
                             << len << " count=" << count;

        got = dst0;
        gf256::xor_region_multi(got.data(), srcs.data(), count, len);
        want = dst0;
        for (std::size_t j = 0; j < count; ++j) {
          for (std::size_t i = 0; i < len; ++i) {
            want[i] = static_cast<std::uint8_t>(want[i] ^ srcs[j][i]);
          }
        }
        ASSERT_EQ(got, want) << gf256::backend_name(b) << " xor_multi len="
                             << len << " count=" << count;
      }
    }
  }
}

TEST_F(GfKernelTest, MultiSourceKernelsMatchOracleForEverySourceCount) {
  // The SIMD multi kernels take the sources in passes of at most 16: each
  // pass sorts its sources into plain XORs (c == 1) and table products,
  // drops c == 0, and loads every product's tables once. Counts of 0, 1 and
  // 2, one full pass, and two and three passes; coefficients 0 and 1 at
  // mixed positions among the products; and one source listed twice.
  util::Rng rng(81);
  for (const auto b : usable_backends()) {
    ASSERT_TRUE(gf256::set_backend(b));
    for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                  std::size_t{63}, std::size_t{64},
                                  std::size_t{65}, std::size_t{4113}}) {
      for (const std::size_t count :
           {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
            std::size_t{16}, std::size_t{17}, std::size_t{33},
            std::size_t{40}}) {
        std::vector<std::vector<std::uint8_t>> src_bufs;
        std::vector<const std::uint8_t*> srcs;
        std::vector<std::uint8_t> coeffs;
        for (std::size_t j = 0; j < count; ++j) {
          src_bufs.push_back(random_bytes(rng, len));
          srcs.push_back(src_bufs.back().data());
          // A third each of 0, 1 and a product coefficient.
          const int kind = rng.uniform_int(0, 2);
          coeffs.push_back(kind < 2 ? static_cast<std::uint8_t>(kind)
                                    : static_cast<std::uint8_t>(
                                          rng.uniform_int(2, 255)));
        }
        if (count >= 3) srcs[count - 1] = srcs[0];
        const auto dst0 = random_bytes(rng, len);

        auto got = dst0;
        gf256::mul_add_region_multi(got.data(), srcs.data(), coeffs.data(),
                                    count, len);
        auto want = dst0;
        for (std::size_t j = 0; j < count; ++j) {
          oracle_mul_add(want.data(), srcs[j], coeffs[j], len);
        }
        ASSERT_EQ(got, want) << gf256::backend_name(b) << " mul_add_multi len="
                             << len << " count=" << count;
      }
    }
  }
}

TEST_F(GfKernelTest, BackendsAgreeOnEncode) {
  // End-to-end cross-check: a full RS encode must produce byte-identical
  // parity under every backend (GF arithmetic is exact, so a backend switch
  // can never change stored bytes).
  util::Rng rng(80);
  const auto data = random_shards(rng, 4, 4096 + 24);
  std::vector<std::vector<Shard>> outs;
  for (const auto b : usable_backends()) {
    ASSERT_TRUE(gf256::set_backend(b));
    ReedSolomonCode code(6, 4);
    outs.push_back(code.encode(data));
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_EQ(outs[i], outs[0]);
  }
}

TEST_F(GfKernelTest, EnvOverrideHonoredByReset) {
#if defined(_WIN32)
  GTEST_SKIP() << "setenv not available";
#else
  ASSERT_EQ(setenv("DFS_GF_BACKEND", "scalar", 1), 0);
  gf256::reset_backend();
  EXPECT_EQ(gf256::active_backend(), gf256::Backend::kScalar);
  ASSERT_EQ(setenv("DFS_GF_BACKEND", "nonsense", 1), 0);
  gf256::reset_backend();  // warns, falls back to auto — just must not crash
  EXPECT_TRUE(gf256::backend_supported(gf256::active_backend()));
  ASSERT_EQ(unsetenv("DFS_GF_BACKEND"), 0);
#endif
}

// --- gf65536 region kernels --------------------------------------------------
// The pair-table fast path (bytes >= kPairTableMinBytes) must agree with the
// per-symbol log/exp path, and the multi kernel with a sequential oracle.

TEST(Gf65536Kernels, PairTablePathMatchesLogExp) {
  util::Rng rng(81);
  // Odd symbol counts straddling the kPairTableMinBytes threshold.
  for (const std::size_t bytes :
       {std::size_t{2}, std::size_t{100}, gf65536::kPairTableMinBytes - 2,
        gf65536::kPairTableMinBytes, gf65536::kPairTableMinBytes + 2,
        std::size_t{20002}}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto c =
          static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
      const auto src = random_bytes(rng, bytes);
      const auto dst0 = random_bytes(rng, bytes);

      auto got = dst0;
      gf65536::mul_add_region(got.data(), src.data(), c, bytes);
      auto want = dst0;
      for (std::size_t i = 0; i < bytes; i += 2) {
        std::uint16_t s, d;
        std::memcpy(&s, src.data() + i, 2);
        std::memcpy(&d, want.data() + i, 2);
        d = static_cast<std::uint16_t>(d ^ gf65536::mul(c, s));
        std::memcpy(want.data() + i, &d, 2);
      }
      ASSERT_EQ(got, want) << "mul_add bytes=" << bytes << " c=" << c;

      got = dst0;
      gf65536::mul_region(got.data(), src.data(), c, bytes);
      want.assign(bytes, 0);
      for (std::size_t i = 0; i < bytes; i += 2) {
        std::uint16_t s;
        std::memcpy(&s, src.data() + i, 2);
        const std::uint16_t p = gf65536::mul(c, s);
        std::memcpy(want.data() + i, &p, 2);
      }
      ASSERT_EQ(got, want) << "mul bytes=" << bytes << " c=" << c;
    }
  }
}

TEST(Gf65536Kernels, MultiSourceMatchesSequential) {
  util::Rng rng(82);
  for (const std::size_t bytes :
       {std::size_t{2}, std::size_t{4096}, std::size_t{8192 + 18}}) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                    std::size_t{5}}) {
      std::vector<std::vector<std::uint8_t>> src_bufs;
      std::vector<const std::uint8_t*> srcs;
      std::vector<std::uint16_t> coeffs;
      for (std::size_t j = 0; j < count; ++j) {
        src_bufs.push_back(random_bytes(rng, bytes));
        srcs.push_back(src_bufs.back().data());
        coeffs.push_back(j == 0 ? std::uint16_t{1}
                                : static_cast<std::uint16_t>(
                                      rng.uniform_int(0, 65535)));
      }
      const auto dst0 = random_bytes(rng, bytes);

      auto got = dst0;
      gf65536::mul_add_region_multi(got.data(), srcs.data(), coeffs.data(),
                                    count, bytes);
      auto want = dst0;
      for (std::size_t j = 0; j < count; ++j) {
        gf65536::mul_add_region(want.data(), srcs[j], coeffs[j], bytes);
      }
      ASSERT_EQ(got, want) << "bytes=" << bytes << " count=" << count;
    }
  }
}

}  // namespace
}  // namespace dfs::ec
