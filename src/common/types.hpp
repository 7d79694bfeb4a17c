// Fundamental vocabulary types shared by every gridlb module.
//
// Simulated time is a plain double number of seconds since the start of a
// simulation run.  Strong-typedef wrappers are used for the identifier
// families (tasks, nodes, agents/resources) so that an AgentId can never be
// passed where a TaskId is expected.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace gridlb {

/// Simulated wall-clock time in seconds since the start of the run.
using SimTime = double;

/// Sentinel for "no time" / "not yet happened".
inline constexpr SimTime kNoTime = -1.0;

/// A value safely beyond any event horizon used in practice.
inline constexpr SimTime kTimeInfinity = std::numeric_limits<double>::infinity();

namespace detail {

/// CRTP-free strong integer id.  `Tag` makes distinct instantiations
/// incompatible; the underlying value is a 64-bit unsigned integer.
template <class Tag>
class StrongId {
 public:
  constexpr StrongId() = default;
  constexpr explicit StrongId(std::uint64_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr auto operator<=>(StrongId, StrongId) = default;

  [[nodiscard]] std::string str() const { return std::to_string(value_); }

  static constexpr std::uint64_t kInvalid =
      std::numeric_limits<std::uint64_t>::max();

 private:
  std::uint64_t value_ = kInvalid;
};

}  // namespace detail

struct TaskTag {};
struct AgentTag {};

/// Identifies one task (one submitted request) for its whole lifetime.
using TaskId = detail::StrongId<TaskTag>;
/// Identifies one agent == one grid resource (S1..S12 in the case study).
using AgentId = detail::StrongId<AgentTag>;

}  // namespace gridlb

namespace std {
template <class Tag>
struct hash<gridlb::detail::StrongId<Tag>> {
  size_t operator()(gridlb::detail::StrongId<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std
