// Minimal command-line flag parser for the tools and examples.
//
// Supports `--key value`, `--key=value` and boolean `--flag` forms, plus
// positional arguments.  Repeated flags resolve last-wins (scripts append
// overrides to a baseline command line), and numeric getters require the
// whole token to parse ("16x" is an error, not 16).  Declared flags carry
// a help line; `usage()` renders them.  `--help` / `-h` are always
// accepted and only set `help_requested()`.  Unknown flags and missing
// values raise FlagError so typos fail fast with a message a tool can
// print next to its usage.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace gridlb {

/// A command line the user got wrong: an unknown flag or a flag missing
/// its value.  what() is the bare message ("unknown flag --x").
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Flags {
 public:
  /// Declares a flag before parsing; `value_hint` is shown in usage (empty
  /// for boolean flags).
  void declare(std::string name, std::string value_hint, std::string help);

  /// Parses argv (excluding argv[0]).  Throws FlagError on unknown flags
  /// (including single-dash `-x` forms) and on flags missing a value.
  void parse(int argc, const char* const* argv);

  /// True once `--help` or `-h` appeared on the parsed command line.
  [[nodiscard]] bool help_requested() const { return help_requested_; }

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] int get_int(const std::string& name, int fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

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
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

}  // namespace gridlb
