#include "xml/xml.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/assert.hpp"

namespace gridlb::xml {

ParseError::ParseError(const std::string& message, std::size_t byte_offset)
    : std::runtime_error(message + " (at byte " + std::to_string(byte_offset) +
                         ")"),
      offset_(byte_offset) {}

/// A parsed document's storage: one block, sized from the input, plus
/// overflow blocks for input denser than the estimate.  In the current
/// block nodes and attribute arrays grow up from `low` and characters grow
/// down from `high`, so the attribute array an element is filling stays
/// the newest object and extends in place.  The Arena itself
/// heads its first block.
struct Element::Arena {
  char* low;
  char* high;
  std::size_t block_bytes;  ///< usable bytes of the current block
  void* overflow = nullptr;  ///< newest overflow block; each links the last

  static constexpr std::size_t kHeader = 32;  ///< sizeof(Arena), aligned
  static constexpr std::size_t kLink = 16;    ///< overflow block header

  static Arena* create(std::size_t bytes) {
    static_assert(sizeof(Arena) <= kHeader);
    char* block = static_cast<char*>(::operator new(kHeader + bytes));
    return new (block) Arena{block + kHeader, block + kHeader + bytes, bytes};
  }

  static void release(Arena* arena) {
    for (void* block = arena->overflow; block != nullptr;) {
      void* older = *static_cast<void**>(block);
      ::operator delete(block);
      block = older;
    }
    ::operator delete(arena);
  }

  [[nodiscard]] std::size_t free_bytes() const {
    return static_cast<std::size_t>(high - low);
  }

  /// `bytes` is a multiple of alignof(Element), so `low` stays aligned.
  void* allocate_object(std::size_t bytes) {
    if (free_bytes() < bytes) grow(bytes);
    void* object = low;
    low += bytes;
    return object;
  }

  char* allocate_chars(std::size_t bytes) {
    if (free_bytes() < bytes) grow(bytes);
    high -= bytes;
    return high;
  }

  /// Grows the newest object, which ends at `end`, by `bytes` in place.
  bool extend(const void* end, std::size_t bytes) {
    if (end != low || free_bytes() < bytes) return false;
    low += bytes;
    return true;
  }

  void grow(std::size_t bytes) {
    block_bytes = std::max(2 * block_bytes, bytes);
    char* block = static_cast<char*>(::operator new(kLink + block_bytes));
    *reinterpret_cast<void**>(block) = overflow;
    overflow = block;
    low = block + kLink;
    high = low + block_bytes;
  }
};

void Element::operator delete(Element* element, std::destroying_delete_t) {
  Arena* arena = element->arena_;
  element->~Element();
  Arena::release(arena);
}

Element& Element::append_child() {
  auto* node =
      new (arena_->allocate_object(sizeof(Element))) Element(arena_, {});
  if (last_child_ != nullptr) {
    last_child_->next_sibling_ = node;
  } else {
    first_child_ = node;
  }
  last_child_ = node;
  return *node;
}

void Element::push_attribute(Attribute attribute) {
  if (attribute_count_ == attribute_capacity_) {
    if (attributes_ != nullptr &&
        arena_->extend(attributes_ + attribute_capacity_, sizeof(Attribute))) {
      ++attribute_capacity_;
    } else {
      const std::uint32_t capacity = std::max(1u, 2 * attribute_count_);
      auto* moved = static_cast<Attribute*>(
          arena_->allocate_object(capacity * sizeof(Attribute)));
      std::copy_n(attributes_, attribute_count_, moved);
      attributes_ = moved;
      attribute_capacity_ = capacity;
    }
  }
  attributes_[attribute_count_++] = attribute;
}

std::optional<std::string_view> Element::attribute(
    std::string_view key) const {
  for (const Attribute& existing : attributes()) {
    if (existing.key == key) return existing.value;
  }
  return std::nullopt;
}

void Element::append_text(std::string_view text) {
  char* chars = arena_->allocate_chars(text_.size() + text.size());
  std::memcpy(chars, text_.data(), text_.size());
  std::memcpy(chars + text_.size(), text.data(), text.size());
  text_ = {chars, text_.size() + text.size()};
}

const Element* Element::child(std::string_view name) const {
  for (const Element* c = first_child_; c != nullptr; c = c->next_sibling_) {
    if (c->name_ == name) return c;
  }
  return nullptr;
}

std::string_view Element::child_text(std::string_view name) const {
  const Element* c = child(name);
  return c != nullptr ? c->text_ : std::string_view{};
}

namespace {

/// Byte classes, one table lookup per byte.
enum : unsigned char {
  kEscaped = 1,  ///< written as an entity: & < > " '
  kSpace = 2,    ///< isspace in the "C" locale
  kTrimmed = 4,  ///< indentation the parser drops around text: ' ' \t \r \n
  kName = 8,     ///< isalnum in the "C" locale, plus _ - . :
};

constexpr std::array<unsigned char, 256> kClasses = [] {
  std::array<unsigned char, 256> classes{};
  const auto mark = [&classes](std::string_view bytes, unsigned char cls) {
    for (const char ch : bytes) classes[static_cast<unsigned char>(ch)] |= cls;
  };
  mark("&<>\"'", kEscaped);
  mark(" \t\n\v\f\r", kSpace);
  mark(" \t\r\n", kTrimmed);
  mark("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.:",
       kName);
  return classes;
}();

constexpr bool is(char ch, unsigned char cls) {
  return (kClasses[static_cast<unsigned char>(ch)] & cls) != 0;
}

/// The entity an escaped byte becomes.
constexpr std::string_view entity_for(char ch) {
  switch (ch) {
    case '&': return "&amp;";
    case '<': return "&lt;";
    case '>': return "&gt;";
    case '"': return "&quot;";
    default: return "&apos;";
  }
}

/// Bytes `raw` takes once its escaped bytes are entities.
std::size_t escaped_size(std::string_view raw) {
  std::size_t bytes = raw.size();
  for (const char ch : raw) {
    if (is(ch, kEscaped)) bytes += entity_for(ch).size() - 1;
  }
  return bytes;
}

/// Copies `raw` to `out`, its escaped bytes as entities, each run of plain
/// bytes as one slice; returns the end of the copy.
char* copy_escaped(char* out, std::string_view raw) {
  const auto copy = [&out](std::string_view bytes) {
    if (bytes.empty()) return;
    std::memcpy(out, bytes.data(), bytes.size());
    out += bytes.size();
  };
  std::size_t plain = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (!is(raw[i], kEscaped)) continue;
    copy(raw.substr(plain, i - plain));
    copy(entity_for(raw[i]));
    plain = i + 1;
  }
  copy(raw.substr(plain));
  return out;
}

/// Arena bytes `parse` reserves for `input`: its terminated copy, one node
/// per 24 input bytes and room for eight attributes.  Every agent document
/// fits; denser input grows the arena.
std::size_t parse_arena_bytes(std::string_view input) {
  return input.size() + 1 + (input.size() / 24 + 1) * sizeof(Element) +
         8 * sizeof(Attribute);
}

}  // namespace

/// Recursive-descent parser over the document's own copy of the input,
/// which every name, value and text of the tree points into.  Entities
/// are decoded in place: the decoded text is never longer than the raw.
class Element::Parser {
 public:
  explicit Parser(std::string_view input) {
    Arena* arena = Arena::create(parse_arena_bytes(input));
    root_.reset(new (arena->allocate_object(sizeof(Element)))
                    Element(arena, {}));
    // A NUL after the copy ends every scan over a byte class at the end of
    // the input without a bounds check.
    copy_ = arena->allocate_chars(input.size() + 1);
    if (!input.empty()) std::memcpy(copy_, input.data(), input.size());
    copy_[input.size()] = '\0';
    input_ = {copy_, input.size()};
  }

  std::unique_ptr<Element> parse_document() {
    skip_whitespace();
    skip_declaration();
    skip_whitespace();
    parse_element(*root_, 1);
    skip_whitespace();
    if (pos_ != input_.size()) {
      fail("trailing content after document root");
    }
    return std::move(root_);
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message, pos_);
  }

  [[nodiscard]] bool eof() const { return pos_ >= input_.size(); }
  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return input_[pos_];
  }
  char take() {
    const char ch = peek();
    ++pos_;
    return ch;
  }
  void expect(char ch) {
    if (take() != ch) {
      --pos_;
      fail(std::string("expected '") + ch + "'");
    }
  }
  [[nodiscard]] bool looking_at(std::string_view prefix) const {
    return input_.substr(pos_, prefix.size()) == prefix;
  }

  void skip_whitespace() {
    while (is(copy_[pos_], kSpace)) ++pos_;
  }

  void skip_declaration() {
    if (!looking_at("<?xml")) return;
    const auto end = input_.find("?>", pos_);
    if (end == std::string_view::npos) fail("unterminated XML declaration");
    pos_ = end + 2;
  }

  void skip_comment() {
    if (!looking_at("<!--")) return;
    const auto end = input_.find("-->", pos_ + 4);
    if (end == std::string_view::npos) fail("unterminated comment");
    pos_ = end + 3;
  }

  std::string_view parse_name() {
    const std::size_t start = pos_;
    while (is(copy_[pos_], kName)) ++pos_;
    if (pos_ == start) fail("expected a name");
    return input_.substr(start, pos_ - start);
  }

  /// The `size` raw bytes at `start` with their entities decoded, in place;
  /// each run between entities moves as one slice.
  std::string_view decode(std::size_t start, std::size_t size) {
    const std::string_view raw = input_.substr(start, size);
    std::size_t amp = raw.find('&');
    if (amp == std::string_view::npos) return raw;
    char* out = copy_ + start + amp;
    for (;;) {
      const auto semi = raw.find(';', amp);
      if (semi == std::string_view::npos) fail("unterminated entity");
      const std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
      if (entity == "amp") *out++ = '&';
      else if (entity == "lt") *out++ = '<';
      else if (entity == "gt") *out++ = '>';
      else if (entity == "quot") *out++ = '"';
      else if (entity == "apos") *out++ = '\'';
      else fail("unknown entity &" + std::string(entity) + ";");
      const std::size_t plain = semi + 1;
      amp = raw.find('&', plain);
      const std::size_t run =
          (amp == std::string_view::npos ? raw.size() : amp) - plain;
      std::memmove(out, raw.data() + plain, run);
      out += run;
      if (amp == std::string_view::npos) break;
    }
    const char* first = copy_ + start;
    return {first, static_cast<std::size_t>(out - first)};
  }

  std::string_view parse_attribute_value() {
    const char quote = take();
    if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
    const std::size_t start = pos_;
    const auto end = input_.find(quote, pos_);
    pos_ = end == std::string_view::npos ? input_.size() : end;
    if (eof()) fail("unterminated attribute value");
    const std::string_view value = decode(start, pos_ - start);
    ++pos_;  // closing quote
    return value;
  }

  void parse_element(Element& element, std::size_t depth) {
    if (depth > kMaxDepth) {
      fail("elements nested deeper than " + std::to_string(kMaxDepth));
    }
    expect('<');
    element.name_ = parse_name();
    // Attributes; a repeated key keeps its last value.
    for (;;) {
      skip_whitespace();
      const char ch = peek();
      if (ch == '/' || ch == '>') break;
      const std::string_view key = parse_name();
      skip_whitespace();
      expect('=');
      skip_whitespace();
      const std::string_view value = parse_attribute_value();
      const auto attributes =
          std::span(element.attributes_, element.attribute_count_);
      const auto existing = std::find_if(
          attributes.begin(), attributes.end(),
          [key](const Attribute& attribute) { return attribute.key == key; });
      if (existing != attributes.end()) {
        existing->value = value;
      } else {
        element.push_attribute({key, value});
      }
    }
    if (peek() == '/') {
      take();
      expect('>');
      return;
    }
    expect('>');
    // Content: interleaved text, comments and child elements.
    for (;;) {
      const std::size_t text_start = pos_;
      const auto text_end = input_.find('<', pos_);
      pos_ = text_end == std::string_view::npos ? input_.size() : text_end;
      // Keep interior whitespace but drop pure-indentation runs.  Entities
      // never decode to whitespace, so trimming before decoding is exact.
      std::size_t first = text_start;
      while (first < pos_ && is(input_[first], kTrimmed)) ++first;
      if (first < pos_) {
        std::size_t last = pos_;
        while (is(input_[last - 1], kTrimmed)) --last;
        const std::string_view decoded = decode(first, last - first);
        if (element.text_.empty()) {
          element.text_ = decoded;
        } else {
          element.append_text(decoded);
        }
      }
      if (eof()) {
        fail("unterminated element <" + std::string(element.name_) + ">");
      }
      const char next = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
      if (next == '!' && looking_at("<!--")) {
        skip_comment();
        continue;
      }
      if (next == '/') {
        pos_ += 2;
        const std::string_view closing = parse_name();
        if (closing != element.name_) {
          fail("mismatched closing tag </" + std::string(closing) +
               "> for <" + std::string(element.name_) + ">");
        }
        skip_whitespace();
        expect('>');
        return;
      }
      parse_element(element.append_child(), depth + 1);
    }
  }

  std::unique_ptr<Element> root_;
  char* copy_ = nullptr;  ///< the arena's copy of the input
  std::string_view input_;
  std::size_t pos_ = 0;
};

Writer::Writer(std::size_t capacity)
    : out_(std::max<std::size_t>(capacity, 1), '\0'),
      at_(out_.data()),
      end_(out_.data() + out_.size()) {}

void Writer::grow(std::size_t bytes) {
  const auto used = static_cast<std::size_t>(at_ - out_.data());
  out_.resize(std::max(2 * out_.size(), used + bytes));
  at_ = out_.data() + used;
  end_ = out_.data() + out_.size();
}

void Writer::put_escaped(std::string_view raw) {
  // Most values hold no escaped byte: one scan, then one copy.
  if (std::none_of(raw.begin(), raw.end(),
                   [](char ch) { return is(ch, kEscaped); })) {
    make_room(raw.size());
    put(raw);
    return;
  }
  make_room(escaped_size(raw));
  at_ = copy_escaped(at_, raw);
}

void Writer::open(std::string_view name) {
  GRIDLB_ASSERT(depth_ < kMaxDepth);
  make_room(2 + 2 * depth_ + 1 + name.size());
  if (depth_ > 0 && state_ != State::kChildren) {
    if (state_ == State::kStartTag) *at_++ = '>';
    *at_++ = '\n';
  }
  put_indent(depth_);
  *at_++ = '<';
  put(name);
  open_[depth_++] = {name.data(), name.size()};
  state_ = State::kStartTag;
}

void Writer::attribute(std::string_view key, std::string_view value) {
  GRIDLB_ASSERT(state_ == State::kStartTag);
  make_room(1 + key.size() + 2);
  *at_++ = ' ';
  put(key);
  put("=\"");
  put_escaped(value);
  make_room(1);
  *at_++ = '"';
}

void Writer::text(std::string_view text) {
  GRIDLB_ASSERT(depth_ > 0 && state_ != State::kChildren);
  if (text.empty()) return;
  if (state_ == State::kStartTag) {
    make_room(1);
    *at_++ = '>';
    state_ = State::kText;
  }
  put_escaped(text);
}

void Writer::close() {
  GRIDLB_ASSERT(depth_ > 0);
  const Name name = open_[--depth_];
  make_room(2 * depth_ + name.size + 4);
  if (state_ == State::kStartTag) {
    put("/>\n");
  } else {
    if (state_ == State::kChildren) put_indent(depth_);
    put("</");
    put({name.data, name.size});
    put(">\n");
  }
  state_ = State::kChildren;
}

std::string Writer::finish() && {
  GRIDLB_ASSERT(depth_ == 0 && at_ != out_.data());
  out_.resize(static_cast<std::size_t>(at_ - out_.data()));
  return std::move(out_);
}

void stamp_root(std::string& document, std::string_view key,
                std::string_view value) {
  std::size_t end = document.find('>');
  GRIDLB_REQUIRE(end != std::string::npos && end > 0,
                 "no root start tag to stamp");
  if (document[end - 1] == '/') --end;
  // Opened in place with one move of the tail, then filled.
  document.insert(end, 1 + key.size() + 2 + escaped_size(value) + 1, ' ');
  char* out = document.data() + end + 1;
  std::memcpy(out, key.data(), key.size());
  out += key.size();
  *out++ = '=';
  *out++ = '"';
  *copy_escaped(out, value) = '"';
}

std::unique_ptr<Element> parse(std::string_view input) {
  return Element::Parser(input).parse_document();
}

}  // namespace gridlb::xml
