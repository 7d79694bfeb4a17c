// Property test: randomly generated documents, written by xml::Writer,
// read back through xml::Reader to exactly the tree that was written
// (names, attributes, text, structure).
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "support/xml_tree.hpp"
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

using testing::Node;

Node grow(std::string name, Rng& rng, int depth) {
  Node node;
  node.name = std::move(name);
  const auto attribute_count = rng.next_below(3);
  for (std::uint64_t i = 0; i < attribute_count; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    node.attributes.emplace_back(key, random_text(rng));
  }
  // Either text content or children (mixed content order is not
  // preserved by design, so generate one or the other).
  if (depth >= 4 || rng.chance(0.4)) {
    if (rng.chance(0.7)) node.text = random_text(rng);
    return node;
  }
  const auto child_count = 1 + rng.next_below(3);
  for (std::uint64_t i = 0; i < child_count; ++i) {
    node.children.push_back(grow(random_name(rng), rng, depth + 1));
  }
  return node;
}

void write(Writer& writer, const Node& node) {
  writer.open(node.name);
  for (const auto& [key, value] : node.attributes) {
    writer.attribute(key, value);
  }
  writer.text(node.text);
  for (const Node& child : node.children) write(writer, child);
  writer.close();
}

class XmlRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(XmlRoundTripProperty, RandomTreesSurvive) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const Node root = grow(random_name(rng), rng, 0);
    Writer writer(0);
    write(writer, root);
    EXPECT_EQ(testing::read_tree(std::move(writer).finish()), root);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace gridlb::xml
