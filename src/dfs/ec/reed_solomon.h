#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "dfs/ec/linear_code.h"

namespace dfs::ec {

/// The systematic Vandermonde generator over field F: an n x k Vandermonde
/// matrix V right-multiplied by the inverse of its top k x k square, so the
/// top k rows become the identity and any k rows stay invertible (MDS).
/// Throws std::invalid_argument with `bad_k` unless 0 < k < n, and with
/// `too_long` if n exceeds the field's 2^w - 1 distinct evaluation points.
template <typename F>
BasicMatrix<F> systematic_vandermonde_generator(int n, int k, const char* bad_k,
                                                const char* too_long) {
  if (k <= 0 || n <= k) throw std::invalid_argument(bad_k);
  if (n >= F::kFieldSize) throw std::invalid_argument(too_long);
  const auto v = BasicMatrix<F>::vandermonde(n, k);
  std::vector<int> top(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) top[static_cast<std::size_t>(i)] = i;
  const auto inv = v.select_rows(top).inverted();
  // A square Vandermonde with distinct evaluation points is always
  // invertible, so this cannot fail for valid (n, k).
  if (!inv) throw std::logic_error("Vandermonde top square singular");
  return v.multiply(*inv);
}

/// Systematic Reed-Solomon over GF(2^8) (systematic_vandermonde_generator).
class ReedSolomonCode : public LinearCode {
 public:
  ReedSolomonCode(int n, int k);
};

/// Factory helpers ------------------------------------------------------------

std::unique_ptr<ErasureCode> make_reed_solomon(int n, int k);

/// (k+1, k) single-parity XOR code.
std::unique_ptr<ErasureCode> make_single_parity(int k);

/// r-way replication expressed as a (r, 1) code: every "parity" is a copy.
std::unique_ptr<ErasureCode> make_replication(int copies);

}  // namespace dfs::ec
