#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace dfs::util {

/// One row per command-line flag of a tool: name, value kind, target field,
/// bound and a one-line help string. A row's default is whatever its target
/// holds when the row is registered, so each default lives in one place (the
/// config struct or the tool's local variable). parse() fills the targets
/// from argv with one strict rule for every row, and --help is printed from
/// the rows. A default outside its row's bound or options throws
/// std::logic_error at registration. Numeric rows take their bound in the
/// interval notation --help prints: "[1,inf)", "(0,1]", or "0|(1,inf)" for
/// one extra allowed value.
///
///   int racks = 4;
///   FlagTable flags("dfsim", "MapReduce-over-erasure-coding simulator");
///   flags.integer("racks", &racks, "[1,inf)", "racks");
///   if (const auto status = flags.parse(argc, argv)) return *status;
class FlagTable {
 public:
  FlagTable(std::string tool, std::string summary);

  /// Whole decimal token within int range and `bound`.
  void integer(const std::string& name, int* target, const std::string& bound,
               const std::string& help);
  /// Finite number within `bound`.
  void number(const std::string& name, double* target,
              const std::string& bound, const std::string& help);
  /// Comma-separated finite numbers. One bound applies to every element of
  /// a list of any length >= 1; several bounds fix the length and apply
  /// position by position.
  void numbers(const std::string& name, std::vector<double>* target,
               const std::vector<std::string>& bounds,
               const std::string& help);
  /// One of `options`, spelled exactly.
  void choice(const std::string& name, std::string* target,
              const std::vector<std::string>& options,
              const std::string& help);
  /// Free text (a path, or a spec that a later parser checks).
  void text(const std::string& name, std::string* target,
            const std::string& help);
  void text(const std::string& name, std::optional<std::string>* target,
            const std::string& help);
  /// Takes no value; sets the target to true.
  void toggle(const std::string& name, bool* target, const std::string& help);

  /// Accepts "--name value" and "--name=value". An unknown or repeated
  /// flag, a missing or malformed value, a value outside its bound, and a
  /// positional argument (unless `positional` collects them) are errors.
  /// Returns nullopt when the tool should run; otherwise the exit status:
  /// 0 after printing --help, 1 after printing an error naming the flag.
  std::optional<int> parse(int argc, const char* const* argv,
                           std::vector<std::string>* positional = nullptr);

  /// Whether parse() saw --name on the command line (std::logic_error if
  /// no row is named `name`).
  bool given(const std::string& name) const;

  /// Prints "<tool>: <message>" to stderr and returns exit status 1.
  int fail(const std::string& message) const;
  void print_help(std::ostream& out) const;

 private:
  struct Row {
    std::string name;
    std::string kind;   ///< int, num, num,num, num,..., choice, text, switch
    std::string range;  ///< bound or options; "-" if none
    std::string default_text;
    std::string help;
    /// Stores a parsed value; false if it is malformed or out of range.
    std::function<bool(const std::string&)> set;
    bool given = false;
  };

  std::string tool_;
  std::string summary_;
  std::vector<Row> rows_;
};

}  // namespace dfs::util
