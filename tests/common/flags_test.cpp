#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"

namespace gridlb {
namespace {

Flags declared() {
  Flags flags;
  flags.declare("requests", "N", "request count");
  flags.declare("policy", "ga|fifo", "scheduling policy");
  flags.declare("placement", "agent|central|crush", "placement family");
  flags.declare("rate", "x", "a real number");
  flags.declare("csv", "", "boolean switch");
  return flags;
}

/// Parses `args` for a command that reads only `reads`.
void parse_for(Flags& flags, const std::vector<std::string_view>& reads,
               std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  flags.parse(static_cast<int>(argv.size()), argv.data(), "tool", reads);
}

/// Parses `args` for a command that reads every declared flag.
void parse(Flags& flags, std::initializer_list<const char*> args) {
  parse_for(flags, {"requests", "policy", "placement", "rate", "csv"}, args);
}

/// The message of the FlagError that parsing `args` for `reads` throws.
std::string rejection(const std::vector<std::string_view>& reads,
                      std::initializer_list<const char*> args) {
  Flags flags = declared();
  try {
    parse_for(flags, reads, args);
  } catch (const FlagError& error) {
    return error.what();
  }
  return "no FlagError";
}

TEST(Flags, SeparateValueForm) {
  Flags flags = declared();
  parse(flags, {"--requests", "42"});
  EXPECT_EQ(flags.get_int("requests", 0), 42);
  EXPECT_TRUE(flags.has("requests"));
}

TEST(Flags, EqualsValueForm) {
  Flags flags = declared();
  parse(flags, {"--policy=fifo", "--rate=2.5"});
  EXPECT_EQ(flags.get("policy", "ga"), "fifo");
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
}

TEST(Flags, BooleanForms) {
  Flags flags = declared();
  parse(flags, {"--csv"});
  EXPECT_TRUE(flags.get_bool("csv", false));

  Flags off = declared();
  parse(off, {"--csv=false"});
  EXPECT_FALSE(off.get_bool("csv", true));

  Flags on = declared();
  parse(on, {"--csv=on"});
  EXPECT_TRUE(on.get_bool("csv", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  Flags flags = declared();
  parse(flags, {});
  EXPECT_EQ(flags.get_int("requests", 7), 7);
  EXPECT_EQ(flags.get("policy", "ga"), "ga");
  EXPECT_FALSE(flags.get_bool("csv", false));
  EXPECT_FALSE(flags.has("requests"));
}

TEST(Flags, PositionalArguments) {
  // A command reads no positional argument: the first one is a usage error
  // that names it and the command.
  const std::vector<std::string_view> all = {"requests", "csv"};
  EXPECT_EQ(rejection(all, {"run", "--requests", "5", "extra"}),
            "tool takes no positional arguments, got 'run'");
  EXPECT_EQ(rejection(all, {"--requests", "5", "extra"}),
            "tool takes no positional arguments, got 'extra'");
  EXPECT_EQ(rejection(all, {"--csv", "-"}),
            "tool takes no positional arguments, got '-'");
  EXPECT_EQ(rejection(all, {"--csv", "-5"}),
            "tool takes no positional arguments, got '-5'");
  // A value that looks like one still belongs to its flag.
  Flags flags = declared();
  parse(flags, {"--requests", "-5"});
  EXPECT_EQ(flags.get_int("requests", 0), -5);
}

TEST(Flags, FlagsTheCommandDoesNotReadThrow) {
  // Declared but not read by this command: the first such flag is a usage
  // error that names it and the command, in every value form.
  EXPECT_EQ(rejection({"csv"}, {"--csv", "--requests", "5", "--rate", "2"}),
            "tool does not read --requests");
  EXPECT_EQ(rejection({"csv"}, {"--rate=2"}), "tool does not read --rate");
  EXPECT_EQ(rejection({}, {"--csv"}), "tool does not read --csv");
  // An unknown flag is still reported as unknown.
  EXPECT_EQ(rejection({}, {"--csv", "--bogus"}), "unknown flag --bogus");
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags = declared();
  EXPECT_THROW(parse(flags, {"--bogus", "1"}), FlagError);
}

TEST(Flags, MissingValueThrows) {
  Flags flags = declared();
  EXPECT_THROW(parse(flags, {"--requests"}), FlagError);
}

TEST(Flags, UserErrorsAreFlagErrorsNotAssertions) {
  // A typo is the user's mistake, not a gridlb bug: the message names the
  // flag and carries no assertion text.
  Flags flags = declared();
  try {
    parse(flags, {"--requests", "5", "--bogus"});
    FAIL() << "expected FlagError";
  } catch (const AssertionError&) {
    FAIL() << "unknown flag surfaced as an assertion";
  } catch (const FlagError& error) {
    EXPECT_STREQ(error.what(), "unknown flag --bogus");
  }

  Flags dashed = declared();
  EXPECT_THROW(parse(dashed, {"-x"}), FlagError);
  Flags missing = declared();
  try {
    parse(missing, {"--policy"});
    FAIL() << "expected FlagError";
  } catch (const FlagError& error) {
    EXPECT_STREQ(error.what(), "flag --policy needs a value");
  }
}

TEST(Flags, HelpIsRequestedNotRejected) {
  for (const char* help : {"--help", "-h"}) {
    Flags flags = declared();
    parse(flags, {"--requests", "3", help});
    EXPECT_TRUE(flags.help_requested()) << help;
    EXPECT_EQ(flags.get_int("requests", 0), 3);
  }
  // Help wins over input the command would reject, wherever it appears.
  Flags stray = declared();
  parse_for(stray, {}, {"extra", "--requests", "3", "-h"});
  EXPECT_TRUE(stray.help_requested());
  Flags plain = declared();
  parse(plain, {"--csv"});
  EXPECT_FALSE(plain.help_requested());
}

TEST(Flags, LastOccurrenceWins) {
  // Scripts append overrides to a baseline command line; the override
  // (the later occurrence) must take effect, in every value form.
  Flags flags = declared();
  parse(flags, {"--requests", "1", "--requests", "2"});
  EXPECT_EQ(flags.get_int("requests", 0), 2);

  Flags mixed = declared();
  parse(mixed, {"--policy=ga", "--csv", "--policy", "fifo", "--csv=off"});
  EXPECT_EQ(mixed.get("policy", ""), "fifo");
  EXPECT_FALSE(mixed.get_bool("csv", true));

  // --placement follows the same override convention, in both forms and
  // independently of the (orthogonal) local-policy flag.
  Flags placement = declared();
  parse(placement,
        {"--placement", "agent", "--policy=fifo", "--placement=crush"});
  EXPECT_EQ(placement.get("placement", ""), "crush");
  EXPECT_EQ(placement.get("policy", ""), "fifo");
}

TEST(Flags, TrailingGarbageInNumbersThrows) {
  // std::stoi/std::stod stop at the first bad character; "16x" must not
  // silently parse as 16, nor "0.05typo" as 0.05.
  Flags flags = declared();
  parse(flags, {"--requests", "16x", "--rate", "0.05typo"});
  EXPECT_THROW((void)flags.get_int("requests", 0), FlagError);
  EXPECT_THROW((void)flags.get_double("rate", 0.0), FlagError);

  Flags spaced = declared();
  parse(spaced, {"--requests", "16 ", "--rate=1.5e3"});
  EXPECT_THROW((void)spaced.get_int("requests", 0), FlagError);
  EXPECT_DOUBLE_EQ(spaced.get_double("rate", 0.0), 1500.0);
}

TEST(Flags, MalformedNumbersThrow) {
  Flags flags = declared();
  parse(flags, {"--requests", "many", "--rate", "fast", "--csv=maybe"});
  EXPECT_THROW((void)flags.get_int("requests", 0), FlagError);
  EXPECT_THROW((void)flags.get_double("rate", 0.0), FlagError);
  EXPECT_THROW((void)flags.get_bool("csv", false), FlagError);
  try {
    (void)flags.get_int("requests", 0);
    FAIL() << "expected FlagError";
  } catch (const FlagError& error) {
    EXPECT_STREQ(error.what(),
                 "flag --requests expects an integer, got 'many'");
  }
}

TEST(Flags, ReadingUndeclaredFlagThrows) {
  Flags flags = declared();
  parse(flags, {});
  EXPECT_THROW((void)flags.get("nope", ""), AssertionError);
}

TEST(Flags, DuplicateDeclarationThrows) {
  Flags flags = declared();
  EXPECT_THROW(flags.declare("csv", "", "again"), AssertionError);
}

TEST(Flags, UsageListsEveryFlag) {
  const Flags flags = declared();
  const std::string usage = flags.usage("tool");
  EXPECT_NE(usage.find("--requests <N>"), std::string::npos);
  EXPECT_NE(usage.find("--csv"), std::string::npos);
  EXPECT_NE(usage.find("request count"), std::string::npos);
  EXPECT_NE(usage.find("  --help, -h                      print this help"),
            std::string::npos)
      << usage;
}

TEST(Flags, UsageSeparatesWideFlagsFromHelp) {
  // A flag column at or past the 34-char help column must still get a
  // separator — never "--flag <hint>help text" glued together.
  Flags flags;
  flags.declare("a-very-long-scenario-flag-name", "value-hint-too",
                "its help text");
  const std::string usage = flags.usage("tool");
  EXPECT_NE(
      usage.find("--a-very-long-scenario-flag-name <value-hint-too>  its "
                 "help text"),
      std::string::npos)
      << usage;

  // Short flags still pad out to the fixed help column.
  Flags narrow;
  narrow.declare("x", "", "tiny");
  const std::string line = narrow.usage("tool");
  EXPECT_NE(line.find("  --x" + std::string(34 - 5, ' ') + "tiny"),
            std::string::npos)
      << line;
}

}  // namespace
}  // namespace gridlb
