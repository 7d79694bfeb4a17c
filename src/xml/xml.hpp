// Minimal XML: a streaming writer and a strict one-pass reader.
//
// The paper's agents exchange service information (Fig. 5) and request
// documents (Fig. 6) as XML; this module provides just enough XML to
// round-trip those documents faithfully: elements, attributes, text
// content, and the five standard character entities.  It deliberately
// omits namespaces, DTDs, processing instructions and CDATA — the agent
// protocol uses none of them.
//
// A sent document is written in one pass, straight to its bytes, by
// `Writer`.  A received one is read in place, in one pass, by `Reader`,
// which builds nothing and reads exactly the grammar the writer writes, in
// the writer's order: each receiver reads either the root start tag alone
// or the whole document.
#pragma once

#include <cstddef>
#include <cstring>
#include <forward_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/assert.hpp"

namespace gridlb::xml {

/// Thrown by `Reader` on malformed input; `what()` includes the byte offset.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t offset);
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// Deepest element nesting `Reader` accepts and `Writer` writes; the root
/// is at depth 1.  The agent documents nest three deep.  The bound sizes
/// both one's stack of open elements.
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
  /// Text of the open element, inline after its start tag; an element
  /// with text has no children.
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

/// Reads one document in place, in one pass, and builds nothing: the
/// grammar `Writer` writes, in the writer's order.  Calls mirror the
/// writer's: the constructor reads the root start tag, then `attribute`,
/// `open("agent")`, `leaf("port")`, `close()`, ..., `finish()`.  Whitespace
/// between tags is skipped, because the writer indents; a leaf's text is
/// read verbatim.  Anything the writer cannot write throws ParseError with
/// the byte offset: a declaration or a comment, a single-quoted value, text
/// beside child elements, a child other than the one asked for (missing,
/// repeated, unknown or out of order), a start tag with more than
/// kMaxAttributes attributes, elements nested deeper than kMaxDepth, and a
/// mismatched or unterminated tag, an unknown entity or trailing content.
///
/// The reader views the document's bytes: the string must outlive it, and
/// the NUL a std::string keeps after its bytes ends every byte scan.  A
/// value holding no entity is a view into the document; one holding an
/// entity is decoded into storage of the reader's own.  Every view lives as
/// long as both.
class Reader {
 public:
  /// Most attributes one start tag may carry; the agent documents' roots
  /// carry up to six.
  static constexpr std::size_t kMaxAttributes = 8;

  explicit Reader(const std::string& document);
  Reader(std::string&&) = delete;  ///< the views would outlive it
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// The current element: the one opened last and not yet closed, the
  /// root at first.
  [[nodiscard]] std::string_view name() const {
    GRIDLB_ASSERT(depth_ > 0);
    const Span& name = open_[depth_ - 1];
    return {name.data, name.size};
  }
  /// The value of `key` in the current element's start tag, before its
  /// first child is opened; a repeated key keeps its last value.
  [[nodiscard]] std::optional<std::string_view> attribute(
      std::string_view key) const;

  /// Reads the current element's next child's start tag, which must be
  /// `<name`; the child becomes the current element.
  void open(std::string_view name);
  /// Whether the current element's next child is named `name`, reading
  /// nothing but whitespace: the end of a run of repeated leaves.
  bool next_is(std::string_view name);
  /// The current element's text, verbatim and decoded, up to its end tag;
  /// empty for `<name/>`.
  std::string_view text();
  /// Reads the current element's end tag; its parent becomes current.
  void close();
  /// `<name>text</name>` or `<name/>` as the next child: its text.
  std::string_view leaf(std::string_view name) {
    open(name);
    const std::string_view leaf_text = text();
    close();
    return leaf_text;
  }
  /// Closes every open element, and checks that only whitespace follows
  /// the root.
  void finish();

 private:
  /// A name, key or raw value in the document; left uninitialised until
  /// stored.
  struct Span {
    const char* data;
    std::size_t size;
  };

  [[noreturn]] void fail(const std::string& message) const;
  [[nodiscard]] bool eof() const { return pos_ >= size_; }
  [[nodiscard]] char peek() const;
  void expect(char ch);
  void skip_whitespace();
  std::string_view read_name();
  /// Whether the name at byte `at` is `name`: its bytes, then a byte no
  /// name holds.
  [[nodiscard]] bool at_name(std::size_t at, std::string_view name) const;
  /// Skips whitespace to the current element's next tag; text there stands
  /// beside child elements.
  void to_tag();
  /// Reads a start tag at `<` named `expected` (any name if empty), pushes
  /// its element and stores its attributes.
  void start_tag(std::string_view expected);
  /// Checks the entities of `raw`, and appends it to `out`, if given, with
  /// them decoded.
  void decode(std::string_view raw, std::string* out) const;
  /// `raw`, or its decoding in the reader's storage if it holds an entity.
  [[nodiscard]] std::string_view decoded(std::string_view raw) const;

  const char* data_;  ///< the document's bytes, a NUL after the last
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;      ///< elements open
  std::size_t tag_depth_ = 0;  ///< the depth whose start tag `keys_` holds
  std::size_t attributes_ = 0;
  bool empty_ = false;  ///< the current element was `<name/>`
  mutable std::forward_list<std::string> decoded_;
  Span open_[kMaxDepth];
  Span keys_[kMaxAttributes];
  Span values_[kMaxAttributes];
};

/// Declared only because `perfbench/trace_on.cpp` still wraps the deleted
/// tree parser, `std::unique_ptr<Element> parse(std::string_view)`, and
/// that wrapper needs a complete type to compile; it goes with that tracer
/// (ROADMAP item 6).  Nothing builds one.
struct Element {};

}  // namespace gridlb::xml
