#include "dfs/workload/text.h"

#include <array>
#include <cassert>
#include <cstring>
#include <vector>

namespace dfs::workload {

namespace {

// A ~200-word vocabulary. Rank 1 is the most frequent under the Zipf draw.
const std::vector<std::string>& vocabulary() {
  static const std::vector<std::string> words = {
      "the",     "of",       "and",      "to",        "a",
      "in",      "that",     "is",       "was",       "he",
      "for",     "it",       "with",     "as",        "his",
      "on",      "be",       "at",       "by",        "i",
      "this",    "had",      "not",      "are",       "but",
      "from",    "or",       "have",     "an",        "they",
      "which",   "one",      "you",      "were",      "her",
      "all",     "she",      "there",    "would",     "their",
      "we",      "him",      "been",     "has",       "when",
      "who",     "will",     "more",     "no",        "if",
      "out",     "so",       "said",     "what",      "up",
      "its",     "about",    "into",     "than",      "them",
      "can",     "only",     "other",    "new",       "some",
      "could",   "time",     "these",    "two",       "may",
      "then",    "do",       "first",    "any",       "my",
      "now",     "such",     "like",     "our",       "over",
      "man",     "me",       "even",     "most",      "made",
      "after",   "also",     "did",      "many",      "before",
      "must",    "through",  "years",    "where",     "much",
      "your",    "way",      "well",     "down",      "should",
      "because", "each",     "just",     "those",     "people",
      "mr",      "how",      "too",      "little",    "state",
      "good",    "very",     "make",     "world",     "still",
      "own",     "see",      "men",      "work",      "long",
      "get",     "here",     "between",  "both",      "life",
      "being",   "under",    "never",    "day",       "same",
      "another", "know",     "while",    "last",      "might",
      "us",      "great",    "old",      "year",      "off",
      "come",    "since",    "against",  "go",        "came",
      "right",   "used",     "take",     "three",     "states",
      "himself", "few",      "house",    "use",       "during",
      "without", "again",    "place",    "american",  "around",
      "however", "home",     "small",    "found",     "mrs",
      "thought", "went",     "say",      "part",      "once",
      "high",    "general",  "upon",     "school",    "every",
      "dont",    "does",     "got",      "united",    "left",
      "number",  "course",   "war",      "until",     "always",
      "away",    "something", "fact",    "though",    "water",
      "less",    "public",   "put",      "think",     "almost",
      "hand",    "enough",   "far",      "took",      "head",
  };
  return words;
}

// A vocabulary word as generate_text writes it: the word, then a space,
// then padding, so each word is one fixed-size copy.
constexpr std::size_t kPad = 16;
constexpr int kMaxWordsPerLine = 12;

struct PaddedWord {
  std::array<char, kPad> bytes{};
  std::size_t advance = 0;  // word length + 1 for the separator
};

std::vector<PaddedWord> padded_vocabulary() {
  std::vector<PaddedWord> table(vocabulary().size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::string& word = vocabulary()[i];
    assert(word.size() < kPad);
    std::memcpy(table[i].bytes.data(), word.data(), word.size());
    table[i].bytes[word.size()] = ' ';
    table[i].advance = word.size() + 1;
  }
  return table;
}

}  // namespace

const std::string& vocabulary_word(std::size_t rank) {
  return vocabulary()[rank % vocabulary().size()];
}

std::string generate_text(util::Rng& rng, std::size_t approx_bytes) {
  static const std::vector<PaddedWord> words = padded_vocabulary();
  // A line starts below approx_bytes and its words write at most
  // kMaxWordsPerLine * kPad bytes, so the buffer is sized once.
  std::string out(approx_bytes + kMaxWordsPerLine * kPad, '\0');
  char* const text = out.data();
  std::size_t len = 0;
  while (len < approx_bytes) {
    const int words_in_line = rng.uniform_int(4, kMaxWordsPerLine);
    for (int w = 0; w < words_in_line; ++w) {
      const PaddedWord& word = words[rng.zipf(words.size(), 1.05) - 1];
      std::memcpy(text + len, word.bytes.data(), kPad);
      len += word.advance;
    }
    text[len - 1] = '\n';  // the line's last separator
  }
  out.resize(len);
  return out;
}

}  // namespace dfs::workload
