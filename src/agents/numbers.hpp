// Numbers in agent documents: the one strict number reader and the one
// number writer the request, result and service codecs and the transport
// stamps share.
#pragma once

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
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
  /// On [+0, 2^43), which holds the times, deadlines and freetimes the
  /// documents carry, "%f" is integer arithmetic: the value is exactly
  /// mantissa·2^-shift, so round(value·10^6) is one 128-bit product and
  /// one shift, ties to even as printf rounds.  -0.0, negatives, larger
  /// values, nan and inf are left to std::to_chars.
  explicit NumberText(double value) {
    if (!std::signbit(value) && value < 0x1p43) {
      write_fixed6(value);
      return;
    }
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

  /// "%f" of a value in [+0, 2^43).  round(value·10^6) < 2^63, so the
  /// millionths fit one unsigned 64-bit integer.
  void write_fixed6(double value) {
    __extension__ using Wide = unsigned __int128;
    const auto bits = std::bit_cast<std::uint64_t>(value);
    const auto biased = static_cast<int>(bits >> 52);  // the sign bit is 0
    const std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
    // value = mantissa · 2^-shift, subnormals included; below 2^43 the
    // shift is at least 10.
    const std::uint64_t mantissa =
        biased == 0 ? fraction : fraction | (std::uint64_t{1} << 52);
    const int shift = 1075 - (biased == 0 ? 1 : biased);
    std::uint64_t micros = 0;
    // mantissa·10^6 < 2^73, so a longer shift leaves less than half.
    if (shift < 128) {
      const Wide scaled = Wide{mantissa} * 1000000;
      micros = static_cast<std::uint64_t>(scaled >> shift);
      const Wide rest = scaled & ((Wide{1} << shift) - 1);
      const Wide half = Wide{1} << (shift - 1);
      if (rest > half || (rest == half && (micros & 1) != 0)) ++micros;
    }
    char* out = std::to_chars(buffer_.data(),
                              buffer_.data() + buffer_.size(),
                              micros / 1000000)
                    .ptr;
    *out++ = '.';
    auto decimals = static_cast<std::uint32_t>(micros % 1000000);
    for (int digit = 5; digit >= 0; --digit) {
      out[digit] = static_cast<char>('0' + decimals % 10);
      decimals /= 10;
    }
    size_ = static_cast<std::size_t>(out + 6 - buffer_.data());
  }

  /// "%f" of the largest double: a sign, 309 digits, a point, 6 decimals.
  /// Left uninitialised: only [0, size_) is ever written or read.
  std::array<char, 320> buffer_;
  std::size_t size_ = 0;
};

}  // namespace gridlb::agents
