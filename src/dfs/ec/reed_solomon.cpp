#include "dfs/ec/reed_solomon.h"

#include <stdexcept>
#include <string>

namespace dfs::ec {

namespace {

std::string rs_name(int n, int k) {
  return "RS(" + std::to_string(n) + "," + std::to_string(k) + ")";
}

}  // namespace

ReedSolomonCode::ReedSolomonCode(int n, int k)
    : LinearCode(n, k,
                 systematic_vandermonde_generator<GF256Field>(
                     n, k, "Reed-Solomon requires 0 < k < n",
                     "RS over GF(256) requires n <= 255"),
                 rs_name(n, k)) {}

std::unique_ptr<ErasureCode> make_reed_solomon(int n, int k) {
  return std::make_unique<ReedSolomonCode>(n, k);
}

std::unique_ptr<ErasureCode> make_single_parity(int k) {
  Matrix g = Matrix::identity(k);
  Matrix ones(1, k);
  for (int c = 0; c < k; ++c) ones.set(0, c, 1);
  g.append_rows(ones);
  return std::make_unique<LinearCode>(k + 1, k, std::move(g),
                                      "XOR(" + std::to_string(k + 1) + "," +
                                          std::to_string(k) + ")");
}

std::unique_ptr<ErasureCode> make_replication(int copies) {
  if (copies < 2) throw std::invalid_argument("replication needs >= 2 copies");
  Matrix g(copies, 1);
  for (int r = 0; r < copies; ++r) g.set(r, 0, 1);
  return std::make_unique<LinearCode>(copies, 1, std::move(g),
                                      "REP(" + std::to_string(copies) + ")");
}

}  // namespace dfs::ec
