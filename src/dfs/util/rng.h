#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace dfs::util {

/// Deterministic random source used throughout the simulator.
///
/// Every experiment run owns one Rng seeded from the experiment seed, so a
/// (configuration, seed) pair always reproduces the identical trace — a
/// property the tests rely on.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Normal draw clamped below at `floor` (task durations must be positive;
  /// the paper's distributions, e.g. N(20, 1), essentially never clamp).
  double normal(double mean, double stddev, double floor = 1e-3) {
    if (stddev <= 0.0) return std::max(mean, floor);
    const double v = std::normal_distribution<double>(mean, stddev)(engine_);
    return std::max(v, floor);
  }

  /// Exponential draw with the given mean (used for job inter-arrival times).
  double exponential(double mean) {
    assert(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Pick a uniformly random element index of a container of size n.
  std::size_t index(std::size_t n) {
    assert(n > 0);
    return static_cast<std::size_t>(
        std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_));
  }

  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[index(v.size())];
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Choose m distinct indices from [0, n) uniformly (partial Fisher-Yates).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t m) {
    assert(m <= n);
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = 0; i < m; ++i) {
      std::size_t j =
          i + std::uniform_int_distribution<std::size_t>(0, n - 1 - i)(engine_);
      std::swap(idx[i], idx[j]);
    }
    idx.resize(m);
    return idx;
  }

  /// Zipf(s) draw over ranks [1, n]; used by the synthetic text generator to
  /// approximate natural-language word frequencies.
  std::size_t zipf(std::size_t n, double s = 1.0) {
    // Inverse-CDF over precomputed harmonic weights would be cleaner but this
    // is only used for data generation, so rejection-free linear scan with a
    // cached normalizer is fine for the sizes we use.
    if (harmonic_n_ != n || harmonic_s_ != s) {
      harmonic_n_ = n;
      harmonic_s_ = s;
      cdf_.resize(n);
      double acc = 0.0;
      for (std::size_t r = 1; r <= n; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r), s);
        cdf_[r - 1] = acc;
      }
      for (auto& c : cdf_) c /= acc;
    }
    const double u = uniform(0.0, 1.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin()) + 1;
  }

  /// Derive an independent child generator (e.g. one per job) so adding a
  /// consumer does not perturb the draws seen by the others.
  Rng fork() { return Rng(engine_()); }

  /// A child generator that leaves this one's stream where it is: the seed
  /// is the draw fork() would take next, read from a copy of the engine and
  /// remixed (splitmix64 finalizer) so it does not repeat that fork's seed.
  Rng peek_fork() const {
    std::mt19937_64 peek = engine_;
    std::uint64_t z = peek() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::size_t harmonic_n_ = 0;
  double harmonic_s_ = 0.0;
  std::vector<double> cdf_;
};

}  // namespace dfs::util
