// Minimal XML: a streaming writer and a one-pass pull reader.
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
// which builds nothing: each receiver pulls only what it uses, from the
// root start tag alone up to the whole body.
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

/// Reads one document in place, in one pass, and builds nothing.  It reads
/// the root start tag on construction (an optional `<?xml ...?>`
/// declaration and whitespace may precede it); the caller then pulls the
/// content in document order, reading a child as a leaf's text or skipping
/// it.  Whatever it passes over it checks: the grammar `Writer` writes,
/// plus comments, single-quoted values and interior whitespace, so a
/// document read to its end (`finish`) is well formed.  Malformed input
/// throws ParseError with the byte offset, also for elements nested deeper
/// than kMaxDepth.
///
/// The reader views the document's bytes: the string must outlive it, and
/// the NUL a std::string keeps after its bytes ends every byte scan.  A
/// value holding no entity is a view into the document; one holding an
/// entity, and a text split by comments or children, is decoded into
/// storage of the reader's own.  Every view lives as long as both.
class Reader {
 public:
  /// What `next` read from the current element's content.
  enum class Item : unsigned char { kText, kChild, kEnd };

  explicit Reader(const std::string& document);
  Reader(std::string&&) = delete;  ///< the views would outlive it
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  // -- the current element: the innermost open one, the root at first ----
  [[nodiscard]] std::string_view name() const {
    GRIDLB_ASSERT(depth_ > 0);
    const Open& open = open_[depth_ - 1];
    return {data_ + open.name, open.name_size};
  }
  /// The value of `key` in the current element's start tag; a repeated key
  /// keeps its last value.
  [[nodiscard]] std::optional<std::string_view> attribute(
      std::string_view key) const;
  /// Calls `visit(key, value)` for each attribute of the current element's
  /// start tag, in document order, repeats included.
  template <class Visit>
  void for_each_attribute(Visit visit) const {
    std::size_t at = attributes_begin();
    std::string_view key;
    std::string_view value;
    while (next_attribute(at, key, value)) visit(key, decoded(value));
  }

  // -- pulling the content ------------------------------------------------
  /// Reads the current element's next item: a run of text between tags,
  /// indentation trimmed (`run`); a child's start tag, and the child becomes
  /// the current element; or the element's end tag, and its parent becomes
  /// the current element.  Comments are passed over.
  Item next();
  /// The text run `next` last returned kText for, decoded.
  [[nodiscard]] std::string_view run() const { return decoded(run_); }
  /// Enters the current element's next child, passing over its text; false
  /// once the element's end tag is read.
  bool next_child();
  /// Reads the rest of the current element as a leaf, through its end tag:
  /// its text runs, joined; its children are checked and skipped.
  std::string_view text();
  /// Reads the rest of the current element through its end tag, checking it.
  void skip();
  /// Reads and checks the rest of the document: every open element must
  /// close, and only whitespace may follow the root.
  void finish();

 private:
  /// Start-tag attributes kept as views, over every open element; an
  /// element whose attributes do not fit is read again from its tag.
  static constexpr std::size_t kSlots = 32;
  static constexpr std::size_t kUnstored = static_cast<std::size_t>(-1);
  /// One attribute's key and raw value; left uninitialised until stored.
  struct Slot {
    const char* key;
    const char* value;
    std::size_t key_size;
    std::size_t value_size;
  };
  /// An open element, as offsets into the document; left uninitialised
  /// until pushed.  Its attributes lie between its name and `tag_end`, and
  /// are `slots_[first, first + count)` unless `count` is kUnstored.
  struct Open {
    std::size_t name;
    std::size_t name_size;
    std::size_t tag_end;
    std::size_t first;
    std::size_t count;
  };

  [[noreturn]] void fail(const std::string& message) const;
  [[nodiscard]] bool eof() const { return pos_ >= size_; }
  [[nodiscard]] char peek() const;
  char take();
  void expect(char ch);
  [[nodiscard]] bool looking_at(std::string_view prefix) const;
  void skip_whitespace();
  void skip_declaration();
  void skip_comment();
  std::string_view read_name();
  /// Checks the entities of `raw`, and appends it to `out`, if given, with
  /// them decoded.
  void decode(std::string_view raw, std::string* out) const;
  /// Reads a start tag at `<` and pushes its element.
  void open_element();
  /// Pops the current element once its end is read.
  void close_element();
  /// The body of `next`, inlined into `next_child`, `text`, `skip` and
  /// `finish`.
  Item step();

  [[nodiscard]] std::size_t attributes_begin() const;
  /// The attribute of the current start tag at `at`, checked when the tag
  /// was read; false past the last.
  bool next_attribute(std::size_t& at, std::string_view& key,
                      std::string_view& raw) const;
  /// `raw`, or its decoding in the reader's storage if it holds an entity.
  [[nodiscard]] std::string_view decoded(std::string_view raw) const;

  const char* data_;  ///< the document's bytes, a NUL after the last
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< elements open
  std::size_t slots_used_ = 0;
  bool closed_in_tag_ = false;  ///< the current element was `<name/>`
  bool run_has_entity_ = false;
  std::string_view run_;
  mutable std::forward_list<std::string> decoded_;
  Open open_[kMaxDepth];
  Slot slots_[kSlots];
};

/// Declared only because `perfbench/trace_on.cpp` still wraps the deleted
/// tree parser, `std::unique_ptr<Element> parse(std::string_view)`, and
/// that wrapper needs a complete type to compile; it goes with that tracer
/// (ROADMAP item 6).  Nothing builds one.
struct Element {};

}  // namespace gridlb::xml
