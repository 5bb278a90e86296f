#include "dfs/engine/text_jobs.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dfs::engine {

namespace {

/// 16 bytes in one vector register. Comparisons on it compile to the
/// baseline ISA's byte compares (SSE2 on x86-64, NEON on AArch64); no
/// target-specific intrinsic or -m flag is involved.
using Bytes16 = unsigned char __attribute__((vector_size(16)));
using Words2 = std::uint64_t __attribute__((vector_size(16)));

/// Bit j is set when byte j of the 16 at `p` is a word byte, i.e. none of
/// WordCount's five delimiters. Each byte's compare result (0 or 0xff) is
/// masked down to bit j % 8; the eight bytes of each half then hold
/// distinct bits, so multiplying the half by 0x0101...01 adds them, without
/// carries, into its top byte whatever the byte order.
std::uint64_t word_mask16(const char* p) {
  Bytes16 v{};
  std::memcpy(&v, p, sizeof v);
  const auto delimiter =
      (v == ' ') | (v == '\n') | (v == '\t') | (v == '\r') | (v == 0);
  constexpr Bytes16 kBit = {1, 2, 4, 8, 16, 32, 64, 128,
                            1, 2, 4, 8, 16, 32, 64, 128};
  const Words2 halves =
      reinterpret_cast<Words2>(~reinterpret_cast<Bytes16>(delimiter) & kBit);
  constexpr std::uint64_t kSumBytes = 0x0101010101010101ULL;
  return ((halves[0] * kSumBytes) >> 56) |
         (((halves[1] * kSumBytes) >> 56) << 8);
}

/// Bit j is set when byte j of the 64 at `p` is a word byte.
std::uint64_t word_mask64(const char* p) {
  return word_mask16(p) | word_mask16(p + 16) << 16 |
         word_mask16(p + 32) << 32 | word_mask16(p + 48) << 48;
}

/// word_mask64() of the `n` < 64 bytes at `p`, padded with delimiters.
std::uint64_t word_mask_tail(const char* p, std::size_t n) {
  char window[64];
  std::memset(window, ' ', sizeof window);
  std::memcpy(window, p, n);
  return word_mask64(window);
}

/// Calls fn(word) for every maximal run of word bytes, in order. The text is
/// classified 64 bytes at a time into a bit mask whose set bits are word
/// bytes; the words are then read off the mask's edges. The last partial
/// window is copied into a delimiter-padded 64-byte buffer, so one
/// classifier serves every window and nothing is read past the text.
template <typename Fn>
void for_each_word(std::string_view text, Fn&& fn) {
  const char* const p = text.data();
  const std::size_t n = text.size();
  std::uint64_t in_word = 0;  // 1 while a word runs into the next window
  std::size_t start = 0;      // first byte of that word
  for (std::size_t base = 0; base < n; base += 64) {
    const std::uint64_t word_bits = n - base >= 64
                                        ? word_mask64(p + base)
                                        : word_mask_tail(p + base, n - base);
    // Bit j is set where byte j's class differs from the byte before it:
    // starts and ends of words alternate.
    std::uint64_t edges = word_bits ^ ((word_bits << 1) | in_word);
    if (in_word != 0 && edges != 0) {  // the carried word ends here
      const std::size_t end = base + static_cast<std::size_t>(
                                         std::countr_zero(edges));
      fn(std::string_view(p + start, end - start));
      edges &= edges - 1;
    }
    // The rest pair up as start, end; an unpaired last start carries over.
    while (edges != 0) {
      const std::size_t first = base + static_cast<std::size_t>(
                                           std::countr_zero(edges));
      edges &= edges - 1;
      if (edges == 0) {
        start = first;
        break;
      }
      const std::size_t end = base + static_cast<std::size_t>(
                                         std::countr_zero(edges));
      fn(std::string_view(p + first, end - first));
      edges &= edges - 1;
    }
    in_word = word_bits >> 63;
  }
  if (in_word != 0) fn(std::string_view(p + start, n - start));
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
      : end_(block.data() + block.size()), slots_(kInitialSlots) {
    // A slot keeps the key's length in 32 bits.
    if (block.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("text job block of 4 GiB or more");
    }
  }

  /// Counts one occurrence of `key`, a view into the block.
  void add(std::string_view key) {
    const char* const p = key.data();
    const std::size_t n = key.size();
    const std::uint64_t head = chunk(p, std::min<std::size_t>(n, 8));
    const std::uint64_t tag = make_tag(n, hash(p, n, head));
    for (std::size_t i = index(tag);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.tag == tag && slot.head == head &&
          (n <= 8 || std::memcmp(slot.data + 8, p + 8, n - 8) == 0)) {
        ++slot.count;
        return;
      }
      if (slot.tag == 0) {
        slot = {p, head, tag, 1};
        if (++size_ * 2 > slots_.size()) grow();
        return;
      }
    }
  }

  /// The combined counts; call once, after the last add().
  KeyCounts take() {
    const auto used_end =
        std::remove_if(slots_.begin(), slots_.end(),
                       [](const Slot& s) { return s.tag == 0; });
    std::sort(slots_.begin(), used_end,
              [](const Slot& a, const Slot& b) { return a.key() < b.key(); });
    KeyCounts counts;
    for (auto it = slots_.begin(); it != used_end; ++it) {
      counts.emplace_hint(counts.end(), it->key(), it->count);
    }
    return counts;
  }

 private:
  /// 32 bytes, so two slots share a cache line.
  struct Slot {
    const char* data = nullptr;
    std::uint64_t head = 0;  // chunk() of the key's first eight bytes
    std::uint64_t tag = 0;   // make_tag(); 0 marks an empty slot
    long count = 0;

    std::string_view key() const {
      return {data, static_cast<std::size_t>(tag >> 32)};
    }
  };

  static constexpr std::size_t kInitialSlots = 1024;
  static constexpr unsigned kInitialShift = 32 - 10;
  static_assert(kInitialSlots == std::size_t{1} << (32 - kInitialShift));
  static constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  static constexpr std::uint64_t kFinalMul = 0xbf58476d1ce4e5b9ULL;

  /// The key's length in the high half and the hash's top 32 bits, with the
  /// lowest bit set, in the low half: never 0, so it also marks a used slot.
  static std::uint64_t make_tag(std::size_t n, std::uint64_t h) {
    return static_cast<std::uint64_t>(n) << 32 | h >> 32 | 1;
  }

  /// The slot to probe first: the hash's top bits, which depend on every
  /// bit of the key's words.
  std::size_t index(std::uint64_t tag) const {
    return static_cast<std::uint32_t>(tag) >> shift_;
  }

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

  /// A key of at most eight bytes hashes as its zero-padded word, xor a
  /// multiple of its length, times one constant; longer keys mix in eight
  /// more bytes per step first. chunk() zero-pads the last word, so equal
  /// keys hash equally wherever they sit in the block.
  std::uint64_t hash(const char* p, std::size_t n, std::uint64_t head) const {
    std::uint64_t h = head ^ (n * kMul);
    for (std::size_t at = 8; at < n; at += 8) {
      h *= kMul;
      h ^= (h >> 32) ^ chunk(p + at, std::min<std::size_t>(n - at, 8));
    }
    return h * kFinalMul;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    --shift_;
    for (const Slot& slot : old) {
      if (slot.tag == 0) continue;
      std::size_t i = index(slot.tag);
      while (slots_[i].tag != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  const char* end_;
  std::vector<Slot> slots_;
  std::size_t mask_ = kInitialSlots - 1;
  unsigned shift_ = kInitialShift;
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
