// A test-side tree of an XML document, rebuilt through xml::Reader: what
// tests compare a written document with, and navigate the way the
// document-shape tests read one.  src/ builds no tree.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "xml/xml.hpp"

namespace gridlb::xml::testing {

struct Node {
  std::string name;
  /// In document order; a repeated key keeps its first place and its last
  /// value.
  std::vector<std::pair<std::string, std::string>> attributes;
  std::string text;  ///< the element's own text runs, joined
  std::vector<Node> children;

  bool operator==(const Node&) const = default;

  [[nodiscard]] std::optional<std::string> attribute(
      std::string_view key) const {
    for (const auto& [k, value] : attributes) {
      if (k == key) return value;
    }
    return std::nullopt;
  }
  /// First child of that name, or nullptr.
  [[nodiscard]] const Node* child(std::string_view child_name) const {
    for (const Node& c : children) {
      if (c.name == child_name) return &c;
    }
    return nullptr;
  }
  /// Text of the first child of that name ("" if absent).
  [[nodiscard]] std::string child_text(std::string_view child_name) const {
    const Node* c = child(child_name);
    return c != nullptr ? c->text : std::string();
  }
  [[nodiscard]] std::size_t count(std::string_view child_name) const {
    std::size_t n = 0;
    for (const Node& c : children) n += c.name == child_name ? 1 : 0;
    return n;
  }
};

/// Reads the reader's current element through its end tag.
inline Node read_node(Reader& reader) {
  Node node;
  node.name = reader.name();
  reader.for_each_attribute([&node](std::string_view key,
                                    std::string_view value) {
    for (auto& [k, v] : node.attributes) {
      if (k == key) {
        v = value;
        return;
      }
    }
    node.attributes.emplace_back(key, value);
  });
  for (;;) {
    switch (reader.next()) {
      case Reader::Item::kText:
        node.text += reader.run();
        break;
      case Reader::Item::kChild:
        node.children.push_back(read_node(reader));
        break;
      case Reader::Item::kEnd:
        return node;
    }
  }
}

/// Reads a whole document; throws ParseError if it is malformed.
inline Node read_tree(const std::string& document) {
  Reader reader(document);
  Node root = read_node(reader);
  reader.finish();
  return root;
}

}  // namespace gridlb::xml::testing
