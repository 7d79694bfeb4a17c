// Minimal XML: a streaming writer and a parser into a read-only tree.
//
// The paper's agents exchange service information (Fig. 5) and request
// documents (Fig. 6) as XML; this module provides just enough XML to
// round-trip those documents faithfully: elements, attributes, text
// content, and the five standard character entities.  It deliberately
// omits namespaces, DTDs, processing instructions and CDATA — the agent
// protocol uses none of them.
//
// A sent document is written in one pass, straight to its bytes, by
// `Writer`; no tree is built for it.  A received one is parsed into one
// arena: the root element owns it, and every other node, every attribute
// and every name, value and text of the tree lives in it, so parsing a
// document costs one allocation, not one per node and string.  Nodes link
// first-child/next-sibling, and the readers hand out views into the arena
// that stay valid while the root lives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// One element node of a parsed document, read-only.  The root `parse`
/// returns owns the document's arena; the elements reachable from it live
/// in that arena and are only ever handled by reference.  Text interleaved
/// between child elements is concatenated into `text` (document order
/// within mixed content is not preserved — the agent documents never rely
/// on it).  Every view a reader returns lives as long as the root.
class Element {
 public:
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  /// `delete` of the root `parse` returns frees its whole arena, the root
  /// included, at once.
  void operator delete(Element* element, std::destroying_delete_t);

  [[nodiscard]] std::string_view name() const { return name_; }

  // -- attributes ---------------------------------------------------------
  [[nodiscard]] std::optional<std::string_view> attribute(
      std::string_view key) const;
  [[nodiscard]] std::span<const Attribute> attributes() const {
    return {attributes_, attribute_count_};
  }

  // -- text ---------------------------------------------------------------
  [[nodiscard]] std::string_view text() const { return text_; }

  // -- children -----------------------------------------------------------
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

  /// A node of `arena`'s document, named by a view into the arena.
  Element(Arena* arena, std::string_view name) : arena_(arena), name_(name) {}
  static void* operator new(std::size_t, void* where) { return where; }

  Element& append_child();
  void push_attribute(Attribute attribute);
  void append_text(std::string_view text);

  Arena* arena_;
  std::string_view name_;
  std::string_view text_;
  Attribute* attributes_ = nullptr;
  std::uint32_t attribute_count_ = 0;
  std::uint32_t attribute_capacity_ = 0;
  Element* first_child_ = nullptr;
  Element* last_child_ = nullptr;
  Element* next_sibling_ = nullptr;
};

/// Deepest element nesting `parse` accepts and `Writer` writes; the root is
/// at depth 1.  The agent documents nest three deep.  The bound keeps
/// hostile input from overflowing the stack in the recursive parser.
inline constexpr std::size_t kMaxDepth = 64;

/// Writes one document in one pass, straight to its bytes: one element per
/// line, indented two spaces per level; `<name/>` for an element with
/// neither children nor text, `<name>text</name>` for one with text only;
/// the five entities escaped in text and attribute values; a trailing
/// newline.  Calls nest like the document: `open("agentgrid")`,
/// `attribute("type", "service")`, `open("agent")`, `leaf("port",
/// "1000")`, `close()`, `close()`, then `std::move(writer).finish()`.
class Writer {
 public:
  /// The default fits every agent document of the case study, stamps
  /// included, so writing one allocates once; a larger document grows.
  explicit Writer(std::size_t capacity = 640);
  /// The cursor points into the writer's own buffer.
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Starts a child of the open element (or the root).  `name` must stay
  /// valid until the matching `close`.
  void open(std::string_view name);
  /// An attribute of the element opened last, before its first child or
  /// text.
  void attribute(std::string_view key, std::string_view value);
  /// Text of the open element, inline after its start tag, before any
  /// child.
  void text(std::string_view text);
  /// Ends the open element.
  void close();
  /// `<name>text</name>`, or `<name/>` for empty text.
  void leaf(std::string_view name, std::string_view text) {
    open(name);
    this->text(text);
    close();
  }

  /// The document; every element must be closed.
  [[nodiscard]] std::string finish() &&;

 private:
  /// Where the open element stands: its start tag still takes attributes,
  /// its inline text has begun, or its children have.
  enum class State : unsigned char { kStartTag, kText, kChildren };
  /// A name on the open-element stack; left uninitialised until pushed.
  struct Name {
    const char* data;
    std::size_t size;
  };

  /// Makes room for `bytes` more at the cursor; the writes below assume it.
  void make_room(std::size_t bytes) {
    if (static_cast<std::size_t>(end_ - at_) < bytes) grow(bytes);
  }
  void grow(std::size_t bytes);
  void put(std::string_view bytes) {
    if (bytes.empty()) return;  // its data may be null
    std::memcpy(at_, bytes.data(), bytes.size());
    at_ += bytes.size();
  }
  void put_indent(std::size_t depth) {
    std::memset(at_, ' ', 2 * depth);
    at_ += 2 * depth;
  }
  /// Makes its own room.
  void put_escaped(std::string_view raw);

  std::string out_;  ///< sized ahead of the cursor; `finish` cuts it
  char* at_;         ///< the next byte to write
  char* end_;        ///< the end of `out_`
  Name open_[kMaxDepth];
  std::size_t depth_ = 0;
  State state_ = State::kChildren;
};

/// Inserts ` key="value"` (value escaped) as the last attribute of the root
/// start tag of a document `Writer` wrote: a transport stamp such as a
/// reliable send's `msgid`.  A raw `>` cannot occur in an escaped value, so
/// the first `>` (or `/>`) of the document ends the root start tag.
void stamp_root(std::string& document, std::string_view key,
                std::string_view value);

/// Parses a single-rooted document.  Leading/trailing whitespace and an
/// optional `<?xml ...?>` declaration are accepted.  Throws ParseError,
/// also for elements nested deeper than kMaxDepth.  The input is copied
/// into the returned document's arena, so it need not outlive the result.
[[nodiscard]] std::unique_ptr<Element> parse(std::string_view input);

}  // namespace gridlb::xml
