// Minimal XML document model, writer and parser.
//
// The paper's agents exchange service information (Fig. 5) and request
// documents (Fig. 6) as XML; this module provides just enough XML to
// round-trip those documents faithfully: elements, attributes, text
// content, and the five standard character entities.  It deliberately
// omits namespaces, DTDs, processing instructions and CDATA — the agent
// protocol uses none of them.
//
// A document is one arena.  The root element owns it; every other node,
// every attribute and every name, value and text of the tree lives in it,
// so building or parsing a document costs one allocation, not one per
// node and string.  Nodes link first-child/next-sibling, and the readers
// hand out views into the arena that stay valid while the root lives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gridlb::xml {

/// Thrown by `parse` on malformed input; `what()` includes the byte offset.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t offset);
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// One attribute of an element; both views point into the document arena.
struct Attribute {
  std::string_view key;
  std::string_view value;

  bool operator==(const Attribute&) const = default;
};

/// One element node.  An Element built by its constructor (or returned by
/// `parse`) is a document root and owns the arena; the elements reachable
/// from it live in that arena and are only ever handled by reference.
/// Text interleaved between child elements is concatenated into `text`
/// (document order within mixed content is not preserved — the agent
/// documents never rely on it).  Every view a reader returns lives as long
/// as the root.
class Element {
 public:
  /// A new document whose root element is called `name`.
  explicit Element(std::string_view name);
  ~Element();

  /// Moving a root built by the constructor above hands its arena over;
  /// the moved-from root is empty and may only be destroyed.  Moving
  /// anything else (a node, or the root `parse` placed inside its own
  /// arena) fails with an AssertionError.
  Element(Element&& other);
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;
  Element& operator=(Element&&) = delete;

  /// `delete` of the root `parse` returns frees its whole arena, the root
  /// included, at once.
  void operator delete(Element* element, std::destroying_delete_t);
  /// The allocations that delete pairs with: a root built on the heap, and
  /// a node placed in a document arena.
  static void* operator new(std::size_t bytes);
  static void* operator new(std::size_t, void* where) { return where; }

  [[nodiscard]] std::string_view name() const { return name_; }

  // -- attributes ---------------------------------------------------------
  void set_attribute(std::string_view key, std::string_view value);
  [[nodiscard]] std::optional<std::string_view> attribute(
      std::string_view key) const;
  [[nodiscard]] std::span<const Attribute> attributes() const {
    return {attributes_, attribute_count_};
  }

  // -- text ---------------------------------------------------------------
  void set_text(std::string_view text);
  void append_text(std::string_view text);
  [[nodiscard]] std::string_view text() const { return text_; }

  // -- children -----------------------------------------------------------
  Element& add_child(std::string_view name);
  /// Adds `<name>text</name>` and returns the new child.
  Element& add_child_with_text(std::string_view name, std::string_view text);

  /// Forward range over the children in document order, optionally only
  /// those with one element name.
  class Children {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Element;
      using difference_type = std::ptrdiff_t;
      using pointer = const Element*;
      using reference = const Element&;

      iterator() = default;
      reference operator*() const { return *node_; }
      pointer operator->() const { return node_; }
      iterator& operator++() {
        node_ = skip(node_->next_sibling_);
        return *this;
      }
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const iterator& other) const {
        return node_ == other.node_;
      }

     private:
      friend class Children;
      iterator(const Element* node, std::optional<std::string_view> name)
          : name_(name), node_(skip(node)) {}
      [[nodiscard]] const Element* skip(const Element* node) const {
        while (node != nullptr && name_ && node->name_ != *name_) {
          node = node->next_sibling_;
        }
        return node;
      }

      std::optional<std::string_view> name_;
      const Element* node_ = nullptr;
    };

    [[nodiscard]] iterator begin() const { return {first_, name_}; }
    [[nodiscard]] iterator end() const { return {}; }
    [[nodiscard]] bool empty() const { return begin() == end(); }

   private:
    friend class Element;
    Children(const Element* first, std::optional<std::string_view> name)
        : first_(first), name_(name) {}

    const Element* first_;
    std::optional<std::string_view> name_;
  };

  [[nodiscard]] Children children() const { return {first_child_, {}}; }
  /// The children with the given element name, in document order.
  [[nodiscard]] Children children_named(std::string_view name) const {
    return {first_child_, name};
  }
  /// First child with the given element name, or nullptr.
  [[nodiscard]] const Element* child(std::string_view name) const;
  /// Text of the first child with the given name ("" if absent).
  [[nodiscard]] std::string_view child_text(std::string_view name) const;

 private:
  struct Arena;
  class Parser;
  friend std::unique_ptr<Element> parse(std::string_view input);

  /// A node of `arena`'s document, named by a view the caller has already
  /// placed in the arena.
  Element(Arena* arena, std::string_view name) : arena_(arena), name_(name) {}

  [[nodiscard]] std::string_view store(std::string_view text);
  Element& append_child(std::string_view stored_name);
  void push_attribute(Attribute attribute);

  Arena* arena_;
  std::string_view name_;
  std::string_view text_;
  Attribute* attributes_ = nullptr;
  std::uint32_t attribute_count_ = 0;
  std::uint32_t attribute_capacity_ = 0;
  Element* first_child_ = nullptr;
  Element* last_child_ = nullptr;
  Element* next_sibling_ = nullptr;
  bool owns_arena_ = false;  ///< a root: the arena is released with it
  bool in_arena_ = false;    ///< the root `parse` placed in its own arena
};

/// Escapes &, <, >, " and ' for use in text or attribute values.
[[nodiscard]] std::string escape(std::string_view raw);

/// Serialises the element tree.  With `indent >= 0` the output is
/// pretty-printed (children on their own lines); with `indent < 0` it is
/// emitted compactly on one line.
[[nodiscard]] std::string write(const Element& root, int indent = 2);

/// Deepest element nesting `parse` accepts; the root is at depth 1.  The
/// agent documents nest three deep.  The bound keeps hostile input from
/// overflowing the stack in the recursive parser and writer.
inline constexpr std::size_t kMaxDepth = 64;

/// Parses a single-rooted document.  Leading/trailing whitespace and an
/// optional `<?xml ...?>` declaration are accepted.  Throws ParseError,
/// also for elements nested deeper than kMaxDepth.  The input is copied
/// into the returned document's arena, so it need not outlive the result.
[[nodiscard]] std::unique_ptr<Element> parse(std::string_view input);

}  // namespace gridlb::xml
