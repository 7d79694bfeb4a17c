// Lightweight always-on assertion macros.
//
// Simulation correctness bugs (negative times, inconsistent schedules) are
// far cheaper to catch at the point of violation than three modules later,
// so these stay enabled in release builds.  They throw rather than abort so
// tests can assert on the failure.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace gridlb {

/// Thrown when a GRIDLB_ASSERT / GRIDLB_REQUIRE condition fails.
class AssertionError : public std::logic_error {
 public:
  explicit AssertionError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void assertion_failed(const char* expr, const char* file,
                                          int line, const std::string& msg) {
  std::ostringstream os;
  os << "assertion failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw AssertionError(os.str());
}
}  // namespace detail

/// The message a failed GRIDLB_REQUIRE was given — the text after the
/// " — " that assertion_failed writes — or the whole text if there is none.
/// Lets a boundary report a rejected input without the expression and
/// source location.
inline std::string require_message(const AssertionError& error) {
  const std::string what = error.what();
  const std::string separator = " — ";
  const std::size_t at = what.find(separator);
  return at == std::string::npos ? what : what.substr(at + separator.size());
}

}  // namespace gridlb

/// Internal invariant; failure indicates a bug in gridlb itself.
#define GRIDLB_ASSERT(expr)                                              \
  do {                                                                   \
    if (!(expr))                                                         \
      ::gridlb::detail::assertion_failed(#expr, __FILE__, __LINE__, ""); \
  } while (false)

/// Precondition on caller-supplied data; `msg` names the offending input.
#define GRIDLB_REQUIRE(expr, msg)                                           \
  do {                                                                      \
    if (!(expr))                                                            \
      ::gridlb::detail::assertion_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)
