#include "common/flags.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/assert.hpp"

namespace gridlb {

void Flags::declare(std::string name, std::string value_hint,
                    std::string help) {
  GRIDLB_REQUIRE(!name.empty() && name[0] != '-',
                 "declare flag names without dashes");
  GRIDLB_REQUIRE(find_declaration(name) == nullptr,
                 "flag declared twice: " + name);
  declarations_.push_back(
      Declaration{std::move(name), std::move(value_hint), std::move(help)});
}

const Flags::Declaration* Flags::find_declaration(
    const std::string& name) const {
  for (const auto& declaration : declarations_) {
    if (declaration.name == name) return &declaration;
  }
  return nullptr;
}

std::optional<std::string> Flags::find_value(const std::string& name) const {
  // Last occurrence wins, so scripts can append overrides to a baseline
  // command line (`gridlb … --seed 1 … --seed 2` runs with seed 2).
  for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
    if (it->name == name) return it->value;
  }
  return std::nullopt;
}

void Flags::parse(int argc, const char* const* argv, std::string_view command,
                  const std::vector<std::string_view>& reads) {
  // Input the command would ignore; reported after the whole line is read,
  // so that --help anywhere still wins.
  std::optional<std::string> rejected;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      // "-x" is a mistyped flag; "-5" and "-" are positional arguments.
      if (arg.size() > 1 && arg[0] == '-' &&
          std::isalpha(static_cast<unsigned char>(arg[1])) != 0) {
        throw FlagError("unknown flag " + arg);
      }
      if (!rejected) {
        rejected = std::string(command) +
                   " takes no positional arguments, got '" + arg + "'";
      }
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (const auto equals = name.find('='); equals != std::string::npos) {
      value = name.substr(equals + 1);
      name.erase(equals);
      have_value = true;
    }
    const Declaration* declaration = find_declaration(name);
    if (declaration == nullptr) throw FlagError("unknown flag --" + name);
    const bool wants_value = !declaration->value_hint.empty();
    if (wants_value && !have_value) {
      if (i + 1 >= argc) throw FlagError("flag --" + name + " needs a value");
      value = argv[++i];
      have_value = true;
    }
    if (!wants_value && !have_value) value = "true";
    if (!rejected &&
        std::find(reads.begin(), reads.end(), name) == reads.end()) {
      rejected = std::string(command) + " does not read --" + name;
    }
    values_.push_back(Value{std::move(name), std::move(value)});
  }
  if (rejected && !help_requested_) throw FlagError(*rejected);
}

bool Flags::has(const std::string& name) const {
  return find_value(name).has_value();
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  GRIDLB_REQUIRE(find_declaration(name) != nullptr,
                 "reading undeclared flag: " + name);
  return find_value(name).value_or(fallback);
}

int Flags::get_int(const std::string& name, int fallback) const {
  const auto value = find_value(name);
  if (!value) {
    GRIDLB_REQUIRE(find_declaration(name) != nullptr,
                   "reading undeclared flag: " + name);
    return fallback;
  }
  try {
    std::size_t consumed = 0;
    const int parsed = std::stoi(*value, &consumed);
    // std::stoi stops at the first non-digit; "16x" must not parse as 16.
    if (consumed == value->size()) return parsed;
  } catch (const std::exception&) {
  }
  throw FlagError("flag --" + name + " expects an integer, got '" + *value +
                  "'");
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto value = find_value(name);
  if (!value) {
    GRIDLB_REQUIRE(find_declaration(name) != nullptr,
                   "reading undeclared flag: " + name);
    return fallback;
  }
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(*value, &consumed);
    // std::stod stops at the first bad char; "0.05typo" must not parse.
    if (consumed == value->size()) return parsed;
  } catch (const std::exception&) {
  }
  throw FlagError("flag --" + name + " expects a number, got '" + *value +
                  "'");
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto value = find_value(name);
  if (!value) {
    GRIDLB_REQUIRE(find_declaration(name) != nullptr,
                   "reading undeclared flag: " + name);
    return fallback;
  }
  if (*value == "true" || *value == "1" || *value == "on") return true;
  if (*value == "false" || *value == "0" || *value == "off") return false;
  throw FlagError("flag --" + name + " expects a boolean, got '" + *value +
                  "'");
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& declaration : declarations_) {
    std::string left = "  --" + declaration.name;
    if (!declaration.value_hint.empty()) {
      left += " <" + declaration.value_hint + ">";
    }
    os << left;
    // Pad to a fixed help column, but never glue a wide flag to its help
    // text: at least two spaces always separate the columns.
    const std::size_t column = std::max<std::size_t>(34, left.size() + 2);
    for (std::size_t pad = left.size(); pad < column; ++pad) os << ' ';
    os << declaration.help << '\n';
  }
  os << "  --help, -h                      print this help\n";
  return os.str();
}

}  // namespace gridlb
