// Property test: randomly generated documents, written by xml::Writer,
// read back through xml::Reader, guided by the tree that was written, to
// exactly its names, attributes, text and structure.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

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
      "plain words here", "/dcs/junwei/model", "  padded  ", " "};
  return kTexts[rng.next_below(std::size(kTexts))];
}

/// A generated document: an element holds text or children, never both.
struct Node {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::string text;
  std::vector<Node> children;
};

Node grow(std::string name, Rng& rng, int depth) {
  Node node;
  node.name = std::move(name);
  const auto attribute_count = rng.next_below(3);
  for (std::uint64_t i = 0; i < attribute_count; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    node.attributes.emplace_back(key, random_text(rng));
  }
  // Either text content or children: the writer writes no element with
  // both.
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

/// Reads the reader's current element as `node` was written, through its
/// end tag.
void expect_read_back(Reader& reader, const Node& node) {
  EXPECT_EQ(reader.name(), node.name);
  for (const auto& [key, value] : node.attributes) {
    EXPECT_EQ(reader.attribute(key), value) << key;
  }
  if (node.children.empty()) {
    EXPECT_EQ(reader.text(), node.text);
  }
  for (const Node& child : node.children) {
    reader.open(child.name);
    expect_read_back(reader, child);
  }
  reader.close();
}

class XmlRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(XmlRoundTripProperty, RandomTreesSurvive) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const Node root = grow(random_name(rng), rng, 0);
    Writer writer(0);
    write(writer, root);
    const std::string written = std::move(writer).finish();
    Reader reader(written);
    expect_read_back(reader, root);
    reader.finish();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace gridlb::xml
