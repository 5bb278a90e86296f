#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace dfs::engine {

/// Key -> count pairs emitted by a map task (std::map for deterministic
/// iteration in tests and example output).
using KeyCounts = std::map<std::string, long>;

/// A text-processing MapReduce job in the functional layer. All three of the
/// paper's testbed jobs (§VI) fit one shape: map emits (key, count) pairs
/// from a block of text, reduce sums the counts per key.
class TextJob {
 public:
  virtual ~TextJob() = default;
  virtual std::string name() const = 0;
  /// Map one input block's text into (key, count) pairs.
  virtual KeyCounts map(std::string_view text) const = 0;
};

/// WordCount: emits every word with count 1 (combined per block, as a Hadoop
/// combiner would). A word is a maximal run of bytes other than the five
/// delimiters space, '\n', '\t', '\r' and '\0'; every other byte, '\v',
/// '\f' and bytes >= 0x80 included, belongs to a word.
std::unique_ptr<TextJob> make_word_count();

/// Grep: emits every line containing `pattern` (key = the line).
std::unique_ptr<TextJob> make_grep(std::string pattern);

/// LineCount: emits every line with count 1 — like WordCount over lines, and
/// shuffles more data than Grep (§VI).
std::unique_ptr<TextJob> make_line_count();

/// Reduce-side merge: sums `src` into `dst` per key.
void merge_counts(KeyCounts& dst, const KeyCounts& src);

}  // namespace dfs::engine
