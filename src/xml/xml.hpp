// Minimal XML document model, writer and parser.
//
// The paper's agents exchange service information (Fig. 5) and request
// documents (Fig. 6) as XML; this module provides just enough XML to
// round-trip those documents faithfully: elements, attributes, text
// content, and the five standard character entities.  It deliberately
// omits namespaces, DTDs, processing instructions and CDATA — the agent
// protocol uses none of them.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gridlb::xml {

/// Thrown by `parse` on malformed input; `what()` includes the byte offset.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t offset);
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// One element node.  Children are owned; text interleaved between child
/// elements is concatenated into `text` (document order within mixed
/// content is not preserved — the agent documents never rely on it).
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // -- attributes ---------------------------------------------------------
  void set_attribute(std::string key, std::string value);
  [[nodiscard]] std::optional<std::string_view> attribute(
      std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  attributes() const {
    return attributes_;
  }

  // -- text ---------------------------------------------------------------
  void set_text(std::string text) { text_ = std::move(text); }
  void append_text(std::string_view text) { text_ += text; }
  [[nodiscard]] const std::string& text() const { return text_; }

  // -- children -----------------------------------------------------------
  Element& add_child(std::string name);
  /// Adds `<name>text</name>` and returns the new child.
  Element& add_child_with_text(std::string name, std::string text);
  /// Takes ownership of an already-built subtree.
  Element& adopt_child(std::unique_ptr<Element> child);
  [[nodiscard]] const std::vector<std::unique_ptr<Element>>& children() const {
    return children_;
  }

  /// First child with the given element name, or nullptr.
  [[nodiscard]] const Element* child(std::string_view name) const;
  /// All children with the given element name, in document order.
  [[nodiscard]] std::vector<const Element*> children_named(
      std::string_view name) const;
  /// Text of the first child with the given name ("" if absent).
  [[nodiscard]] std::string child_text(std::string_view name) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::string text_;
  std::vector<std::unique_ptr<Element>> children_;
};

/// Escapes &, <, >, " and ' for use in text or attribute values.
[[nodiscard]] std::string escape(std::string_view raw);

/// Serialises the element tree.  With `indent >= 0` the output is
/// pretty-printed (children on their own lines); with `indent < 0` it is
/// emitted compactly on one line.
[[nodiscard]] std::string write(const Element& root, int indent = 2);

/// Deepest element nesting `parse` accepts; the root is at depth 1.  The
/// agent documents nest three deep.  The bound keeps hostile input from
/// overflowing the stack in the recursive parser and in ~Element.
inline constexpr std::size_t kMaxDepth = 64;

/// Parses a single-rooted document.  Leading/trailing whitespace and an
/// optional `<?xml ...?>` declaration are accepted.  Throws ParseError,
/// also for elements nested deeper than kMaxDepth.
[[nodiscard]] std::unique_ptr<Element> parse(std::string_view input);

}  // namespace gridlb::xml
