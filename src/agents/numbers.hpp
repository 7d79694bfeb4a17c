// Numbers in agent documents: the one strict number reader and the one
// number writer the request, result and service codecs and the transport
// stamps share.
#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <string>
#include <string_view>
#include <system_error>

#include "common/assert.hpp"

namespace gridlb::agents {

/// Reads all of `text` as a T: an integer in T's range, or a finite
/// double.  Empty text, a sign T cannot hold, leading or trailing junk,
/// nan, inf and out-of-range values fail GRIDLB_REQUIRE naming `what`.
template <class T>
  requires std::integral<T> || std::same_as<T, double>
[[nodiscard]] T read_number(std::string_view text, std::string_view what) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool whole = error == std::errc{} && stop == end;
  if constexpr (std::same_as<T, double>) whole = whole && std::isfinite(value);
  GRIDLB_REQUIRE(whole, "malformed number in " + std::string(what) + ": '" +
                            std::string(text) + "'");
  return value;
}

/// A number as the agent documents write it, formatted on the stack:
/// integers in decimal, doubles byte-for-byte as std::to_string ("%f").
class NumberText {
 public:
  template <std::integral T>
  explicit NumberText(T value) {
    finish(
        std::to_chars(buffer_.data(), buffer_.data() + buffer_.size(), value));
  }
  explicit NumberText(double value) {
    finish(std::to_chars(buffer_.data(), buffer_.data() + buffer_.size(),
                         value, std::chars_format::fixed, 6));
  }

  [[nodiscard]] std::string_view view() const {
    return {buffer_.data(), size_};
  }

 private:
  void finish(std::to_chars_result result) {
    GRIDLB_ASSERT(result.ec == std::errc{});
    size_ = static_cast<std::size_t>(result.ptr - buffer_.data());
  }

  /// "%f" of the largest double: a sign, 309 digits, a point, 6 decimals.
  /// Left uninitialised: only [0, size_) is ever written or read.
  std::array<char, 320> buffer_;
  std::size_t size_ = 0;
};

}  // namespace gridlb::agents
