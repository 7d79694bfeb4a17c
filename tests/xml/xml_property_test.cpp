// Property test: randomly generated element trees survive a write/parse
// round trip exactly (names, attributes, text, structure), across pretty
// and compact output modes.
#include <gtest/gtest.h>

#include <iterator>

#include "common/rng.hpp"
#include "xml/xml.hpp"

namespace gridlb::xml {
namespace {

std::string random_name(Rng& rng) {
  static const char* kNames[] = {"agentgrid", "application", "local",
                                 "freetime",  "env-1",       "a.b",
                                 "x_y",       "deadline"};
  return kNames[rng.next_below(std::size(kNames))];
}

std::string random_text(Rng& rng) {
  static const char* kTexts[] = {
      "sweep3d", "10.5", "a&b", "<tag>", "quote\"inside", "it's",
      "plain words here", "/dcs/junwei/model"};
  return kTexts[rng.next_below(std::size(kTexts))];
}

void grow(Element& element, Rng& rng, int depth) {
  // Attributes.
  const auto attribute_count = rng.next_below(3);
  for (std::uint64_t i = 0; i < attribute_count; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    element.set_attribute(key, random_text(rng));
  }
  // Either text content or children (mixed content order is not
  // preserved by design, so generate one or the other).
  if (depth >= 4 || rng.chance(0.4)) {
    if (rng.chance(0.7)) element.set_text(random_text(rng));
    return;
  }
  const auto child_count = 1 + rng.next_below(3);
  for (std::uint64_t i = 0; i < child_count; ++i) {
    grow(element.add_child(random_name(rng)), rng, depth + 1);
  }
}

void expect_equal(const Element& a, const Element& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.text(), b.text());
  ASSERT_EQ(a.attributes().size(), b.attributes().size());
  for (std::size_t i = 0; i < a.attributes().size(); ++i) {
    EXPECT_EQ(a.attributes()[i], b.attributes()[i]);
  }
  ASSERT_EQ(std::ranges::distance(a.children()),
            std::ranges::distance(b.children()));
  auto b_child = b.children().begin();
  for (const Element& a_child : a.children()) {
    expect_equal(a_child, *b_child++);
  }
}

class XmlRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(XmlRoundTripProperty, RandomTreesSurvive) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    Element root(random_name(rng));
    grow(root, rng, 0);
    for (const int indent : {-1, 2}) {
      const auto parsed = parse(write(root, indent));
      expect_equal(root, *parsed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace gridlb::xml
