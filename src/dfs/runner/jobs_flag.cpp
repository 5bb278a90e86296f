#include "dfs/runner/jobs_flag.h"

#include <charconv>

namespace dfs::runner {

std::optional<int> parse_jobs(const std::string& text) {
  if (text.empty()) return std::nullopt;
  int value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;  // junk/overflow
  if (value < 1) return std::nullopt;
  return value;
}

}  // namespace dfs::runner
