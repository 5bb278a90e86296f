#pragma once

#include <cstddef>
#include <string>

#include "dfs/util/rng.h"

namespace dfs::workload {

/// Generates synthetic English-like plain text: Zipf-distributed words from
/// a fixed vocabulary, arranged into lines of a few words each. Stands in
/// for the paper's 15 GB Project Gutenberg corpus in the byte-backed
/// examples; what matters for WordCount/Grep/LineCount is a realistic,
/// skewed word/line distribution, which Zipf provides.
///
/// The output bytes and the position `rng` is left at are a contract: each
/// line draws uniform_int(4, 12) words, each word one zipf(200, 1.05), and
/// lines are appended until at least `approx_bytes` are written. Benchmark
/// digests and pinned WordCount totals depend on them; `workload_test`'s
/// `Text.OutputAndStreamArePinned` holds them fixed.
std::string generate_text(util::Rng& rng, std::size_t approx_bytes);

/// The vocabulary used by generate_text (rank order, taken modulo its
/// size). Exposed so tests and examples can pick query words with known
/// frequencies.
const std::string& vocabulary_word(std::size_t rank);

}  // namespace dfs::workload
