// NumberText(double) writes "%f" with integer arithmetic on [+0, 2^43) and
// falls back to std::to_chars elsewhere; both must give std::to_chars'
// bytes (fixed, 6 decimals) for every double.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "agents/numbers.hpp"
#include "common/rng.hpp"

namespace gridlb::agents {
namespace {

std::string reference(double value) {
  std::array<char, 400> buffer{};
  const auto result = std::to_chars(buffer.data(),
                                    buffer.data() + buffer.size(), value,
                                    std::chars_format::fixed, 6);
  return {buffer.data(), result.ptr};
}

void expect_matches(double value) {
  EXPECT_EQ(NumberText(value).view(), reference(value))
      << "value " << std::hexfloat << value;
}

TEST(NumberText, SignedZeros) {
  EXPECT_EQ(NumberText(0.0).view(), "0.000000");
  EXPECT_EQ(NumberText(-0.0).view(), "-0.000000");
  expect_matches(0.0);
  expect_matches(-0.0);
}

TEST(NumberText, ExactTiesRoundToEven) {
  // 1/128 = 0.0078125 and 3/128 = 0.0234375: the seventh decimal is an
  // exact 5, so the sixth rounds to even (down for 1/128, up for 3/128).
  EXPECT_EQ(NumberText(1.0 / 128).view(), "0.007812");
  EXPECT_EQ(NumberText(3.0 / 128).view(), "0.023438");
  EXPECT_EQ(NumberText(1000.0 + 1.0 / 128).view(), "1000.007812");
  for (int k = 1; k < 128; k += 2) expect_matches(k / 128.0);
  for (int k = 1; k < 2048; k += 2) expect_matches(5000.0 + k / 2048.0);
}

TEST(NumberText, AroundTheEndOfTheIntegerPath) {
  const double edge = 0x1p43;
  expect_matches(std::nextafter(edge, 0.0));
  expect_matches(edge);
  expect_matches(std::nextafter(edge, 2 * edge));
  EXPECT_EQ(NumberText(edge).view(), "8796093022208.000000");
  EXPECT_EQ(NumberText(std::nextafter(edge, 0.0)).view(),
            "8796093022207.999023");
}

TEST(NumberText, SmallLargeAndNegativeValues) {
  for (const double value :
       {std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(), 0x1p-1000, 4.9999995e-7,
        5e-7, 5.0000005e-7, 1e-6, 0.5, 1.0, 2.5, 1e7, 1e7 + 0.0000005,
        123456789.1234565, 1e15, 1e300,
        std::numeric_limits<double>::max(), -1e-7, -0.5, -1.0, -1e7,
        -123.4567895, -std::numeric_limits<double>::max()}) {
    expect_matches(value);
  }
  EXPECT_EQ(NumberText(std::numeric_limits<double>::denorm_min()).view(),
            "0.000000");
  EXPECT_EQ(NumberText(1e7).view(), "10000000.000000");
  EXPECT_EQ(NumberText(-2.5).view(), "-2.500000");
}

TEST(NumberText, SeededRandomSweep) {
  Rng rng(2003);
  for (int i = 0; i < 200000; ++i) {
    // Uniform bit patterns cover every exponent; scaled uniforms cover
    // the simulated times and deadlines the documents carry.
    const double bits = std::bit_cast<double>(rng.next_u64());
    if (!std::isnan(bits)) expect_matches(bits);
    expect_matches(rng.uniform(0.0, 100000.0));
    expect_matches(std::ldexp(rng.uniform(1.0, 2.0),
                              static_cast<int>(rng.uniform(-30.0, 44.0))));
  }
}

}  // namespace
}  // namespace gridlb::agents
