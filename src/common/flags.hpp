// Minimal command-line flag parser for the tools and examples.
//
// Supports `--key value`, `--key=value` and boolean `--flag` forms; a
// command line is parsed for one command, which reads some of the declared
// flags and no positional arguments.  Repeated flags resolve last-wins
// (scripts append overrides to a baseline command line), and numeric
// getters require the whole token to parse ("16x" is an error, not 16).
// Declared flags carry a help line; `usage()` renders them.  `--help` /
// `-h` are always accepted and only set `help_requested()`.  Unknown
// flags, missing values, malformed values, flags the command does not read
// and positional arguments raise FlagError so typos fail fast with a
// message a tool can print next to its usage.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gridlb {

/// A command line the user got wrong: an unknown flag, a flag missing its
/// value or a value that does not parse.  what() is the bare message
/// ("unknown flag --x").
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Flags {
 public:
  /// Declares a flag before parsing; `value_hint` is shown in usage (empty
  /// for boolean flags).
  void declare(std::string name, std::string value_hint, std::string help);

  /// Parses argv (excluding argv[0]) for `command`, which reads only the
  /// flags named in `reads`.  Throws FlagError on unknown flags (including
  /// single-dash `-x` forms) and on flags missing a value; unless `--help`
  /// or `-h` appears, also on the first flag outside `reads` or positional
  /// argument, naming it and `command`.
  void parse(int argc, const char* const* argv, std::string_view command,
             const std::vector<std::string_view>& reads);

  /// True once `--help` or `-h` appeared on the parsed command line.
  [[nodiscard]] bool help_requested() const { return help_requested_; }

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// Typed getters; a value that does not parse as a whole throws
  /// FlagError.
  [[nodiscard]] int get_int(const std::string& name, int fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] std::string usage(const std::string& program) const;

 private:
  struct Declaration {
    std::string name;
    std::string value_hint;
    std::string help;
  };
  struct Value {
    std::string name;
    std::string value;  // "true" for bare boolean flags
  };

  [[nodiscard]] const Declaration* find_declaration(
      const std::string& name) const;
  [[nodiscard]] std::optional<std::string> find_value(
      const std::string& name) const;

  std::vector<Declaration> declarations_;
  std::vector<Value> values_;
  bool help_requested_ = false;
};

}  // namespace gridlb
