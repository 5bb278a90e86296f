#include "dfs/ec/hitchhiker.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "dfs/ec/reed_solomon.h"

namespace dfs::ec {

namespace {

/// Substripe bit layout: bit 0 = the a-half, bit 1 = the b-half.
constexpr unsigned kHalfA = 0x1;
constexpr unsigned kHalfB = 0x2;
constexpr unsigned kBothHalves = kHalfA | kHalfB;

Matrix rs_generator(int n, int k) {
  // A single parity is a valid RS shape, so this is checked before the
  // shared generator's n bound.
  if (0 < k && k < n && n - k < 2) {
    throw std::invalid_argument(
        "Hitchhiker-XOR requires n - k >= 2 (parity 0 carries no piggyback)");
  }
  return systematic_vandermonde_generator<GF256Field>(
      n, k, "Hitchhiker-XOR requires 0 < k < n",
      "Hitchhiker-XOR over GF(256) requires n <= 255");
}

int balanced_group_start(int k, int groups, int g) {
  const int base = k / groups;
  const int rem = k % groups;
  return g * base + std::min(g, rem);
}

/// The (2n, 2k) generator: symbol 2i is a_i, symbol 2i+1 is b_i. Parity j's
/// a-row and b-row carry the RS coefficients on the a- and b-positions
/// respectively; for j >= 1 the b-row additionally XORs (coefficient 1) the
/// a-positions of piggyback group G_j.
Matrix inner_generator(int n, int k) {
  const Matrix rs = rs_generator(n, k);
  const int r = n - k;
  const int groups = r - 1;
  Matrix g(2 * n, 2 * k);
  for (int i = 0; i < 2 * k; ++i) g.set(i, i, 1);
  for (int j = 0; j < r; ++j) {
    const int a_row = 2 * (k + j);
    const int b_row = a_row + 1;
    for (int t = 0; t < k; ++t) {
      const auto c = rs.at(k + j, t);
      g.set(a_row, 2 * t, c);
      g.set(b_row, 2 * t + 1, c);
    }
    if (j >= 1) {
      const int start = balanced_group_start(k, groups, j - 1);
      const int end = balanced_group_start(k, groups, j);
      for (int t = start; t < end; ++t) {
        g.set(b_row, 2 * t, GF256Field::add(g.at(b_row, 2 * t), 1));
      }
    }
  }
  return g;
}

std::string hh_name(int n, int k) {
  return "HH-XOR(" + std::to_string(n) + "," + std::to_string(k) + ")";
}

}  // namespace

HitchhikerXorCode::HitchhikerXorCode(int n, int k)
    : ErasureCode(n, k),
      inner_(2 * n, 2 * k, inner_generator(n, k), hh_name(n, k) + "/inner") {}

std::string HitchhikerXorCode::name() const { return hh_name(n(), k()); }

int HitchhikerXorCode::group_of(int data_shard) const {
  if (data_shard < 0 || data_shard >= k()) {
    throw std::invalid_argument("group_of: not a data shard");
  }
  const int groups = piggyback_groups();
  for (int g = 0; g < groups; ++g) {
    if (data_shard < balanced_group_start(k(), groups, g + 1)) return g;
  }
  return groups - 1;  // unreachable for valid inputs
}

int HitchhikerXorCode::group_size(int group) const {
  if (group < 0 || group >= piggyback_groups()) {
    throw std::invalid_argument("group_size: bad group");
  }
  return balanced_group_start(k(), piggyback_groups(), group + 1) -
         balanced_group_start(k(), piggyback_groups(), group);
}

std::vector<Shard> HitchhikerXorCode::encode(
    const std::vector<Shard>& data) const {
  check_encode_args(data);
  const std::size_t len = data.front().size();
  if (len % 2 != 0) {
    throw std::invalid_argument("Hitchhiker shard length must be even");
  }
  // The substripes are contiguous halves of each shard, so the inner code
  // encodes straight out of the data shards and into the final parity
  // buffers via region pointers — no half-shard copies, no concatenation.
  const std::size_t half = len / 2;
  std::vector<const std::uint8_t*> srcs(static_cast<std::size_t>(2 * k()));
  for (int i = 0; i < k(); ++i) {
    const Shard& d = data[static_cast<std::size_t>(i)];
    srcs[static_cast<std::size_t>(2 * i)] = d.data();
    srcs[static_cast<std::size_t>(2 * i + 1)] = d.data() + half;
  }
  std::vector<Shard> parity(static_cast<std::size_t>(parity_count()),
                            Shard(len, 0));
  std::vector<std::uint8_t*> dsts(static_cast<std::size_t>(2 * parity_count()));
  for (int j = 0; j < parity_count(); ++j) {
    Shard& p = parity[static_cast<std::size_t>(j)];
    dsts[static_cast<std::size_t>(2 * j)] = p.data();
    dsts[static_cast<std::size_t>(2 * j + 1)] = p.data() + half;
  }
  inner_.encode_regions(srcs.data(), dsts.data(), half);
  return parity;
}

std::optional<std::vector<Shard>> HitchhikerXorCode::reconstruct(
    const std::vector<std::pair<int, const Shard*>>& present,
    const std::vector<int>& want) const {
  std::vector<PresentSlice> slices;
  slices.reserve(present.size());
  for (const auto& [id, shard] : present) {
    slices.push_back(PresentSlice{id, kBothHalves, shard});
  }
  return reconstruct_slices(slices, want);
}

std::optional<std::vector<Shard>> HitchhikerXorCode::reconstruct_slices(
    const std::vector<PresentSlice>& present,
    const std::vector<int>& want) const {
  if (present.empty()) return std::nullopt;
  // Every slice holds its fetched substripes back to back, so the half-shard
  // length is its byte count divided by the number of substripes it carries.
  std::size_t half = 0;
  for (const PresentSlice& p : present) {
    if (p.shard < 0 || p.shard >= n()) {
      throw std::invalid_argument("bad shard index");
    }
    if (p.substripes == 0 || (p.substripes & ~kBothHalves) != 0) {
      throw std::invalid_argument("bad substripe mask");
    }
    if (p.bytes == nullptr) throw std::invalid_argument("null slice bytes");
    const std::size_t parts = p.substripes == kBothHalves ? 2 : 1;
    if (p.bytes->size() % parts != 0) {
      throw std::invalid_argument("slice length must cover its substripes");
    }
    const std::size_t h = p.bytes->size() / parts;
    if (half == 0) half = h;
    if (h != half || h == 0) {
      throw std::invalid_argument("slices disagree on the substripe length");
    }
  }
  std::vector<Shard> owned;
  owned.reserve(2 * present.size());
  std::vector<std::pair<int, const Shard*>> inner_present;
  for (const PresentSlice& p : present) {
    const auto* base = p.bytes->data();
    if (p.substripes & kHalfA) {
      owned.emplace_back(base, base + half);
    }
    if (p.substripes & kHalfB) {
      const auto* b = (p.substripes & kHalfA) ? base + half : base;
      owned.emplace_back(b, b + half);
    }
  }
  std::size_t slot = 0;
  for (const PresentSlice& p : present) {
    if (p.substripes & kHalfA) {
      inner_present.emplace_back(2 * p.shard, &owned[slot++]);
    }
    if (p.substripes & kHalfB) {
      inner_present.emplace_back(2 * p.shard + 1, &owned[slot++]);
    }
  }
  std::vector<int> inner_want;
  inner_want.reserve(2 * want.size());
  for (const int w : want) {
    if (w < 0 || w >= n()) throw std::invalid_argument("bad wanted index");
    inner_want.push_back(2 * w);
    inner_want.push_back(2 * w + 1);
  }
  auto halves = inner_.reconstruct(inner_present, inner_want);
  if (!halves) return std::nullopt;
  std::vector<Shard> out;
  out.reserve(want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    Shard s = std::move((*halves)[2 * i]);
    const Shard& b = (*halves)[2 * i + 1];
    s.insert(s.end(), b.begin(), b.end());
    out.push_back(std::move(s));
  }
  return out;
}

std::optional<RecoveryPlan> HitchhikerXorCode::recovery_plan(
    const std::vector<int>& available, int lost) const {
  if (lost < 0 || lost >= n()) throw std::invalid_argument("bad lost index");
  if (std::find(available.begin(), available.end(), lost) !=
      available.end()) {
    return RecoveryPlan{{full_shard_option({lost})}};
  }
  RecoveryPlan plan;
  if (lost < k()) {
    // Sub-shard repair: needs every other data shard, parity 0 and the
    // group's piggybacked parity alive.
    const int g = group_of(lost);
    const int piggy_parity = k() + 1 + g;
    std::vector<char> present(static_cast<std::size_t>(n()), 0);
    for (const int a : available) present[static_cast<std::size_t>(a)] = 1;
    bool feasible = present[static_cast<std::size_t>(k())] &&
                    present[static_cast<std::size_t>(piggy_parity)];
    for (int d = 0; d < k() && feasible; ++d) {
      if (d != lost) feasible = present[static_cast<std::size_t>(d)] != 0;
    }
    if (feasible) {
      RecoveryOption opt;
      for (const int a : available) {  // caller's preference order
        if (a < k() && a != lost) {
          if (group_of(a) == g) {
            opt.sources.push_back(RecoverySource{a, kBothHalves, 1.0});
          } else {
            opt.sources.push_back(RecoverySource{a, kHalfB, 0.5});
          }
        } else if (a == k() || a == piggy_parity) {
          opt.sources.push_back(RecoverySource{a, kHalfB, 0.5});
        }
      }
      plan.options.push_back(std::move(opt));
    }
  }
  // Full-shard fallback (and the only path for parity shards): a greedy
  // spanning prefix over whole survivors, via the inner half-shard code.
  {
    std::vector<int> row_ids;
    row_ids.reserve(2 * available.size());
    for (const int a : available) {
      if (a < 0 || a >= n()) throw std::invalid_argument("bad shard index");
      row_ids.push_back(2 * a);
      row_ids.push_back(2 * a + 1);
    }
    const detail::RowSolver<GF256Field> solver(inner_.generator(), row_ids);
    const auto ca = solver.express(inner_.generator().row(2 * lost));
    const auto cb = solver.express(inner_.generator().row(2 * lost + 1));
    if (ca && cb) {
      std::vector<int> chosen;
      for (std::size_t i = 0; i < available.size(); ++i) {
        if ((*ca)[2 * i] != 0 || (*ca)[2 * i + 1] != 0 ||
            (*cb)[2 * i] != 0 || (*cb)[2 * i + 1] != 0) {
          chosen.push_back(available[i]);
        }
      }
      plan.options.push_back(full_shard_option(chosen));
    }
  }
  if (plan.options.empty()) return std::nullopt;
  return plan;
}

std::unique_ptr<ErasureCode> make_hitchhiker_xor(int n, int k) {
  return std::make_unique<HitchhikerXorCode>(n, k);
}

}  // namespace dfs::ec
