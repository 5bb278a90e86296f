#include "dfs/ec/wide_rs.h"

#include <string>

#include "dfs/ec/reed_solomon.h"

namespace dfs::ec {

WideReedSolomonCode::WideReedSolomonCode(int n, int k)
    : BasicLinearCode<GF65536Field>(
          n, k,
          systematic_vandermonde_generator<GF65536Field>(
              n, k, "Reed-Solomon requires 0 < k < n",
              "wide RS over GF(2^16) requires n <= 65535"),
          "RS16(" + std::to_string(n) + "," + std::to_string(k) + ")") {}

std::unique_ptr<ErasureCode> make_wide_reed_solomon(int n, int k) {
  return std::make_unique<WideReedSolomonCode>(n, k);
}

}  // namespace dfs::ec
