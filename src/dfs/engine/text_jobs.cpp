#include "dfs/engine/text_jobs.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace dfs::engine {

namespace {

/// WordCount's byte classes: true for a byte that belongs to a word, false
/// for a delimiter. Indexed by unsigned char, so bytes >= 0x80 are looked up
/// like any other.
constexpr std::array<bool, 256> kWordByte = [] {
  std::array<bool, 256> table{};
  table.fill(true);
  for (const unsigned char c : {' ', '\n', '\t', '\r', '\0'}) table[c] = false;
  return table;
}();

/// Bit j is set when byte j of the `n` <= 64 bytes at `p` is a word byte.
std::uint64_t word_mask(const char* p, std::size_t n) {
  std::uint64_t bits = 0;
  std::size_t j = 0;
  // Eight bytes per step, so the inner shifts are constants.
  for (; j + 8 <= n; j += 8) {
    std::uint64_t eight = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      eight |= std::uint64_t{kWordByte[static_cast<unsigned char>(p[j + k])]}
               << k;
    }
    bits |= eight << j;
  }
  for (; j < n; ++j) {
    bits |= std::uint64_t{kWordByte[static_cast<unsigned char>(p[j])]} << j;
  }
  return bits;
}

/// Calls fn(word) for every maximal run of word bytes, in order. The text is
/// classified 64 bytes at a time into a bit mask whose set bits are word
/// bytes; the words are then read off the mask's edges.
template <typename Fn>
void for_each_word(std::string_view text, Fn&& fn) {
  const std::size_t n = text.size();
  bool in_word = false;
  std::size_t start = 0;  // first byte of the word in progress
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - base);
    const std::uint64_t word_bits = word_mask(text.data() + base, len);
    // Bit j is set where byte j's class differs from the byte before it:
    // starts and ends of words alternate.
    std::uint64_t edges = word_bits ^ ((word_bits << 1) | in_word);
    if (len < 64) edges &= (std::uint64_t{1} << len) - 1;
    for (; edges != 0; edges &= edges - 1) {
      const std::size_t at = base + static_cast<std::size_t>(
                                        std::countr_zero(edges));
      if (in_word) {
        fn(text.substr(start, at - start));
      } else {
        start = at;
      }
      in_word = !in_word;
    }
  }
  if (in_word) fn(text.substr(start));
}

/// Calls fn(line) for every '\n'-terminated (or trailing) line.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    fn(text.substr(start, end - start));
    start = end + 1;
  }
}

/// Counts the keys of one block, where every key is a view into the block.
/// Keys are combined in an open-addressing hash table (linear probing, at
/// most half full) and copied once each into the sorted result.
class BlockCombiner {
 public:
  explicit BlockCombiner(std::string_view block)
      : end_(block.data() + block.size()), slots_(kInitialSlots) {}

  /// Counts one occurrence of `key`, a view into the block.
  void add(std::string_view key) {
    const std::uint64_t head =
        chunk(key.data(), std::min<std::size_t>(key.size(), 8));
    const std::uint32_t h = hash(key, head);
    std::size_t i = h & mask();
    for (; slots_[i].count != 0; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.hash == h && slot.head == head &&
          same_after_head(slot.key, key)) {
        ++slot.count;
        return;
      }
    }
    slots_[i] = {key, head, 1, h};
    if (++size_ * 2 > slots_.size()) grow();
  }

  /// The combined counts; call once, after the last add().
  KeyCounts take() {
    const auto used_end =
        std::remove_if(slots_.begin(), slots_.end(),
                       [](const Slot& s) { return s.count == 0; });
    std::sort(slots_.begin(), used_end,
              [](const Slot& a, const Slot& b) { return a.key < b.key; });
    KeyCounts counts;
    for (auto it = slots_.begin(); it != used_end; ++it) {
      counts.emplace_hint(counts.end(), it->key, it->count);
    }
    return counts;
  }

 private:
  struct Slot {
    std::string_view key;
    std::uint64_t head = 0;  // chunk() of the key's first eight bytes
    long count = 0;          // 0 marks an empty slot
    std::uint32_t hash = 0;
  };

  static constexpr std::size_t kInitialSlots = 512;
  static constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;

  std::size_t mask() const { return slots_.size() - 1; }

  /// The `n` <= 8 bytes at `p` as one word, zero-padded. When the block
  /// extends eight bytes from `p` they are read in one load and the bytes
  /// past `n` are masked off, so nothing is read outside the block.
  std::uint64_t chunk(const char* p, std::size_t n) const {
    std::uint64_t v = 0;
    if (end_ - p >= 8) {
      std::memcpy(&v, p, 8);
      if (n < 8) {
        const unsigned bits = 8 * static_cast<unsigned>(n);
        v &= std::endian::native == std::endian::little
                 ? (std::uint64_t{1} << bits) - 1
                 : ~(~std::uint64_t{0} >> bits);
      }
    } else if (n > 0) {
      std::memcpy(&v, p, n);
    }
    return v;
  }

  /// Hashes the key eight bytes at a time. chunk() zero-pads the last
  /// word, so equal keys hash equally wherever they sit in the block.
  std::uint32_t hash(std::string_view key, std::uint64_t head) const {
    std::uint64_t h = mix(key.size() * kMul, head);
    for (std::size_t at = 8; at < key.size(); at += 8) {
      h = mix(h, chunk(key.data() + at,
                       std::min<std::size_t>(key.size() - at, 8)));
    }
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  static std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
    h = (h ^ word) * kMul;
    return h ^ (h >> 32);
  }

  /// Whether two keys whose heads are equal are equal.
  static bool same_after_head(std::string_view a, std::string_view b) {
    return a.size() == b.size() &&
           (a.size() <= 8 ||
            std::memcmp(a.data() + 8, b.data() + 8, a.size() - 8) == 0);
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.count == 0) continue;
      std::size_t i = slot.hash & mask();
      while (slots_[i].count != 0) i = (i + 1) & mask();
      slots_[i] = slot;
    }
  }

  const char* end_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

class WordCountJob final : public TextJob {
 public:
  std::string name() const override { return "WordCount"; }

  KeyCounts map(std::string_view text) const override {
    BlockCombiner combiner(text);
    for_each_word(text, [&](std::string_view word) { combiner.add(word); });
    return combiner.take();
  }
};

class GrepJob final : public TextJob {
 public:
  explicit GrepJob(std::string pattern) : pattern_(std::move(pattern)) {}

  std::string name() const override { return "Grep(" + pattern_ + ")"; }

  KeyCounts map(std::string_view text) const override {
    BlockCombiner combiner(text);
    for_each_line(text, [&](std::string_view line) {
      if (line.find(pattern_) != std::string_view::npos) combiner.add(line);
    });
    return combiner.take();
  }

 private:
  std::string pattern_;
};

class LineCountJob final : public TextJob {
 public:
  std::string name() const override { return "LineCount"; }

  KeyCounts map(std::string_view text) const override {
    BlockCombiner combiner(text);
    for_each_line(text, [&](std::string_view line) {
      if (!line.empty()) combiner.add(line);
    });
    return combiner.take();
  }
};

}  // namespace

std::unique_ptr<TextJob> make_word_count() {
  return std::make_unique<WordCountJob>();
}

std::unique_ptr<TextJob> make_grep(std::string pattern) {
  return std::make_unique<GrepJob>(std::move(pattern));
}

std::unique_ptr<TextJob> make_line_count() {
  return std::make_unique<LineCountJob>();
}

void merge_counts(KeyCounts& dst, const KeyCounts& src) {
  for (const auto& [key, count] : src) dst[key] += count;
}

}  // namespace dfs::engine
