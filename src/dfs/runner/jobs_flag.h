#pragma once

#include <optional>
#include <string>

namespace dfs::runner {

/// Strictly parse a `--jobs` value (the benches' `--seeds` too): decimal
/// digits only, value >= 1.
/// Returns nullopt for 0, negative, empty, overflowing, or non-numeric
/// input — the same reject-don't-coerce rule the tools apply to every other
/// numeric flag (atoi would happily read "2x" as 2 and "abc" as 0).
std::optional<int> parse_jobs(const std::string& text);

}  // namespace dfs::runner
