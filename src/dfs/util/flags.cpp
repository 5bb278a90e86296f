#include "dfs/util/flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "dfs/util/args.h"
#include "dfs/util/table.h"

namespace dfs::util {

namespace {

std::string format(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

// `items` formatted by `fmt` and separated by `sep`; "-" when empty.
template <class T, class Fmt>
std::string join(const std::vector<T>& items, const char* sep, Fmt fmt) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += sep;
    out += fmt(item);
  }
  return out.empty() ? "-" : out;
}

std::string same(const std::string& s) { return s; }

// A numeric row's bound in interval notation: "[lo,hi]" with either end
// open ("(" or ")") and inf allowed, optionally prefixed by one extra allowed
// value, as in "0|(1,inf)".
struct Bound {
  explicit Bound(const std::string& spec);
  bool contains(double v) const {
    if (also && v == *also) return true;
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }

  double lo = 0.0;
  double hi = 0.0;
  bool lo_open = false;
  bool hi_open = false;
  std::optional<double> also;
};

Bound::Bound(const std::string& spec) {
  std::string s = spec;
  if (const auto bar = s.find('|'); bar != std::string::npos) {
    also = std::stod(s.substr(0, bar));
    s.erase(0, bar + 1);
  }
  const auto comma = s.find(',');
  if (comma == std::string::npos || s.find_first_of("[(") != 0 ||
      s.find_last_of("])") != s.size() - 1) {
    throw std::invalid_argument("malformed flag bound " + spec);
  }
  lo_open = s.front() == '(';
  hi_open = s.back() == ')';
  lo = std::stod(s.substr(1, comma - 1));
  hi = std::stod(s.substr(comma + 1, s.size() - comma - 2));
}

// Whole-token parse: no leading blanks, no trailing junk, no overflow, and
// for numbers nothing non-finite.
template <class T>
bool parse_whole(const std::string& s, T& out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_same_v<T, int>) {
    const long v = std::strtol(s.c_str(), &end, 10);
    if (v < INT_MIN || v > INT_MAX) return false;
    out = static_cast<int>(v);
  } else {
    out = std::strtod(s.c_str(), &end);
  }
  return end == s.c_str() + s.size() && errno != ERANGE &&
         std::isfinite(static_cast<double>(out));
}

// A default that its own row would reject is a programming error, caught
// when the row is registered.
void check_default(const std::string& name, bool inside,
                   const std::string& allowed) {
  if (!inside) {
    throw std::logic_error("flag --" + name + ": default outside " + allowed);
  }
}

// Setter for a scalar target: a whole-token parse inside `bound`.
template <class T>
std::function<bool(const std::string&)> scalar(T* target, Bound bound) {
  return [=](const std::string& s) {
    T v{};
    if (!parse_whole(s, v) || !bound.contains(v)) return false;
    *target = v;
    return true;
  };
}

// Setter that stores the raw text.
template <class T>
std::function<bool(const std::string&)> store(T* target) {
  return [=](const std::string& s) {
    *target = s;
    return true;
  };
}

}  // namespace

FlagTable::FlagTable(std::string tool, std::string summary)
    : tool_(std::move(tool)), summary_(std::move(summary)) {}

void FlagTable::integer(const std::string& name, int* target,
                        const std::string& bound, const std::string& help) {
  const Bound parsed(bound);
  check_default(name, parsed.contains(*target), bound);
  rows_.push_back({name, "int", bound, std::to_string(*target), help,
                   scalar(target, parsed)});
}

void FlagTable::number(const std::string& name, double* target,
                       const std::string& bound, const std::string& help) {
  const Bound parsed(bound);
  check_default(name, parsed.contains(*target), bound);
  rows_.push_back({name, "num", bound, format(*target), help,
                   scalar(target, parsed)});
}

void FlagTable::numbers(const std::string& name, std::vector<double>* target,
                        const std::vector<std::string>& bounds,
                        const std::string& help) {
  const std::vector<Bound> parsed(bounds.begin(), bounds.end());
  const bool fixed = bounds.size() > 1;
  // An empty default means "not given"; any other must be a valid value.
  const std::string range = join(bounds, "x", same);
  check_default(name, target->empty() || !fixed ||
                          target->size() == bounds.size(), range);
  for (std::size_t i = 0; i < target->size(); ++i) {
    check_default(name, parsed[fixed ? i : 0].contains((*target)[i]), range);
  }
  rows_.push_back(
      {name, fixed ? join(bounds, ",", [](auto&) { return "num"; }) : "num,...",
       range, join(*target, ",", format), help,
       [=](const std::string& s) {
         const auto items = split(s, ',');
         if (items.empty() || (fixed && items.size() != bounds.size())) {
           return false;
         }
         std::vector<double> values(items.size());
         for (std::size_t i = 0; i < items.size(); ++i) {
           if (!scalar(&values[i], parsed[fixed ? i : 0])(items[i])) {
             return false;
           }
         }
         *target = std::move(values);
         return true;
       }});
}

void FlagTable::choice(const std::string& name, std::string* target,
                       const std::vector<std::string>& options,
                       const std::string& help) {
  const std::string range = join(options, "|", same);
  check_default(name,
                std::find(options.begin(), options.end(), *target) !=
                    options.end(),
                range);
  rows_.push_back(
      {name, "choice", range, *target, help,
       [=](const std::string& s) {
         return std::find(options.begin(), options.end(), s) !=
                    options.end() &&
                store(target)(s);
       }});
}

void FlagTable::text(const std::string& name, std::string* target,
                     const std::string& help) {
  const std::string def = target->empty() ? "-" : *target;
  rows_.push_back({name, "text", "-", def, help, store(target)});
}

void FlagTable::text(const std::string& name,
                     std::optional<std::string>* target,
                     const std::string& help) {
  rows_.push_back(
      {name, "text", "-", target->value_or("-"), help, store(target)});
}

void FlagTable::toggle(const std::string& name, bool* target,
                       const std::string& help) {
  rows_.push_back({name, "switch", "-", *target ? "on" : "off", help,
                   [=](const std::string&) {
                     *target = true;
                     return true;
                   }});
}

std::optional<int> FlagTable::parse(int argc, const char* const* argv,
                                    std::vector<std::string>* positional) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      print_help(std::cout);
      return 0;
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (positional == nullptr) {
        return fail("unexpected argument '" + arg + "' (see --help)");
      }
      positional->push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const bool inline_value = eq != std::string::npos;
    const std::string name = arg.substr(2, inline_value ? eq - 2 : eq);
    const auto row = std::find_if(rows_.begin(), rows_.end(),
                                  [&](const Row& r) { return r.name == name; });
    if (row == rows_.end()) {
      return fail("unknown flag --" + name + " (see --help)");
    }
    if (row->given) return fail("--" + name + " given more than once");
    row->given = true;
    if (row->kind == "switch") {
      if (inline_value) return fail("--" + name + " takes no value");
      row->set("");
      continue;
    }
    const std::string expected =
        row->range == "-" ? row->kind : row->kind + " in " + row->range;
    std::string value;
    if (inline_value) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      return fail("--" + name + ": missing value (" + expected + ")");
    }
    if (!row->set(value)) {
      return fail("--" + name + ": expected " + expected + ", got '" + value +
                  "'");
    }
  }
  return std::nullopt;
}

bool FlagTable::given(const std::string& name) const {
  const auto row = std::find_if(rows_.begin(), rows_.end(),
                                [&](const Row& r) { return r.name == name; });
  if (row == rows_.end()) throw std::logic_error("no flag --" + name);
  return row->given;
}

int FlagTable::fail(const std::string& message) const {
  std::cerr << tool_ << ": " << message << "\n";
  return 1;
}

void FlagTable::print_help(std::ostream& out) const {
  // Only the last column (the help text) contains blanks, so scripts can
  // read the rows with awk.
  Table table({"flag", "value", "range", "default", "meaning"});
  for (const Row& r : rows_) {
    table.add_row({"--" + r.name, r.kind, r.range, r.default_text, r.help});
  }
  out << tool_ << " - " << summary_ << "\n\n" << table;
}

}  // namespace dfs::util
