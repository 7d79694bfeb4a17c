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

namespace {

/// Byte classes, one table lookup per byte.
enum : unsigned char {
  kEscaped = 1,  ///< written as an entity: & < > " '
  kSpace = 2,    ///< isspace in the "C" locale
  kName = 4,     ///< isalnum in the "C" locale, plus _ - . :
};

constexpr std::array<unsigned char, 256> kClasses = [] {
  std::array<unsigned char, 256> classes{};
  const auto mark = [&classes](std::string_view bytes, unsigned char cls) {
    for (const char ch : bytes) classes[static_cast<unsigned char>(ch)] |= cls;
  };
  mark("&<>\"'", kEscaped);
  mark(" \t\n\v\f\r", kSpace);
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

}  // namespace

Reader::Reader(const std::string& document)
    : data_(document.c_str()), size_(document.size()) {
  start_tag({});
}

void Reader::fail(const std::string& message) const {
  throw ParseError(message, pos_);
}

inline char Reader::peek() const {
  if (eof()) fail("unexpected end of input");
  return data_[pos_];
}

inline void Reader::expect(char ch) {
  if (peek() != ch) fail(std::string("expected '") + ch + "'");
  ++pos_;
}

inline void Reader::skip_whitespace() {
  while (is(data_[pos_], kSpace)) ++pos_;
}

inline std::string_view Reader::read_name() {
  const std::size_t start = pos_;
  while (is(data_[pos_], kName)) ++pos_;
  if (pos_ == start) fail("expected a name");
  return {data_ + start, pos_ - start};
}

inline void Reader::to_tag() {
  skip_whitespace();
  if (eof()) fail("unterminated element <" + std::string(name()) + ">");
  if (data_[pos_] != '<') {
    fail("text beside child elements of <" + std::string(name()) + ">");
  }
}

void Reader::decode(std::string_view raw, std::string* out) const {
  std::size_t plain = 0;
  for (std::size_t amp = raw.find('&'); amp != std::string_view::npos;
       amp = raw.find('&', plain)) {
    if (out != nullptr) out->append(raw.substr(plain, amp - plain));
    const auto semi = raw.find(';', amp);
    if (semi == std::string_view::npos) fail("unterminated entity");
    const std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
    char ch = '\'';  // &apos;
    if (entity == "amp") ch = '&';
    else if (entity == "lt") ch = '<';
    else if (entity == "gt") ch = '>';
    else if (entity == "quot") ch = '"';
    else if (entity != "apos") {
      fail("unknown entity &" + std::string(entity) + ";");
    }
    if (out != nullptr) out->push_back(ch);
    plain = semi + 1;
  }
  if (out != nullptr) out->append(raw.substr(plain));
}

std::string_view Reader::decoded(std::string_view raw) const {
  if (raw.find('&') == std::string_view::npos) return raw;
  std::string& out = decoded_.emplace_front();
  decode(raw, &out);
  return out;
}

inline bool Reader::at_name(std::size_t at, std::string_view name) const {
  // The NUL after the document stops the boundary check at its end.
  return name.size() <= size_ - at &&
         std::memcmp(data_ + at, name.data(), name.size()) == 0 &&
         !is(data_[at + name.size()], kName);
}

void Reader::start_tag(std::string_view expected) {
  if (depth_ == kMaxDepth) {
    fail("elements nested deeper than " + std::to_string(kMaxDepth));
  }
  std::string_view name;
  if (!expected.empty() && !eof() && data_[pos_] == '<' &&
      at_name(pos_ + 1, expected)) {
    name = {data_ + pos_ + 1, expected.size()};
    pos_ += 1 + expected.size();
  } else {
    // Any name, or the error the byte-by-byte scan finds.
    expect('<');
    name = read_name();
    if (!expected.empty() && name != expected) {
      fail("expected <" + std::string(expected) + ">, found <" +
           std::string(name) + ">");
    }
  }
  open_[depth_++] = {name.data(), name.size()};
  tag_depth_ = depth_;
  attributes_ = 0;
  for (;;) {
    skip_whitespace();
    const char ch = peek();
    if (ch == '/' || ch == '>') break;
    if (attributes_ == kMaxAttributes) {
      fail("more than " + std::to_string(kMaxAttributes) + " attributes");
    }
    const std::string_view key = read_name();
    expect('=');
    expect('"');
    const std::size_t start = pos_;
    const auto* end = static_cast<const char*>(
        std::memchr(data_ + pos_, '"', size_ - pos_));
    pos_ = end == nullptr ? size_ : static_cast<std::size_t>(end - data_);
    if (eof()) fail("unterminated attribute value");
    const std::string_view value(data_ + start, pos_ - start);
    if (value.find('&') != std::string_view::npos) decode(value, nullptr);
    keys_[attributes_] = {key.data(), key.size()};
    values_[attributes_++] = {value.data(), value.size()};
    ++pos_;  // closing quote
  }
  empty_ = data_[pos_] == '/';
  if (empty_) ++pos_;
  expect('>');
}

std::optional<std::string_view> Reader::attribute(std::string_view key) const {
  GRIDLB_ASSERT(depth_ > 0 && depth_ == tag_depth_);
  std::optional<std::string_view> value;
  for (std::size_t i = 0; i < attributes_; ++i) {
    if (std::string_view(keys_[i].data, keys_[i].size) == key) {
      value = std::string_view(values_[i].data, values_[i].size);
    }
  }
  if (value) value = decoded(*value);
  return value;
}

void Reader::open(std::string_view name) {
  GRIDLB_ASSERT(depth_ > 0 && !name.empty());
  if (!empty_) to_tag();
  if (empty_ || data_[pos_ + 1] == '/') {
    fail("missing <" + std::string(name) + "> in <" +
         std::string(this->name()) + ">");
  }
  start_tag(name);
}

bool Reader::next_is(std::string_view name) {
  GRIDLB_ASSERT(depth_ > 0);
  if (empty_) return false;
  to_tag();
  return at_name(pos_ + 1, name);
}

std::string_view Reader::text() {
  GRIDLB_ASSERT(depth_ > 0);
  if (empty_) return {};
  const std::size_t start = pos_;
  const auto* tag =
      static_cast<const char*>(std::memchr(data_ + pos_, '<', size_ - pos_));
  pos_ = tag == nullptr ? size_ : static_cast<std::size_t>(tag - data_);
  if (eof()) fail("unterminated element <" + std::string(name()) + ">");
  if (data_[pos_ + 1] != '/') {
    fail("text beside child elements of <" + std::string(name()) + ">");
  }
  return decoded({data_ + start, pos_ - start});
}

void Reader::close() {
  GRIDLB_ASSERT(depth_ > 0);
  if (empty_) {
    empty_ = false;
    --depth_;
    return;
  }
  to_tag();
  if (data_[pos_ + 1] != '/') {
    ++pos_;
    fail("unexpected <" + std::string(read_name()) + "> in <" +
         std::string(name()) + ">");
  }
  pos_ += 2;
  const std::string_view current = name();
  // A '>' right after the name is also the boundary check; the NUL after
  // the document stops it at its end.
  if (current.size() <= size_ - pos_ &&
      std::memcmp(data_ + pos_, current.data(), current.size()) == 0 &&
      data_[pos_ + current.size()] == '>') {
    pos_ += current.size() + 1;
    --depth_;
    return;
  }
  // The error the byte-by-byte scan finds.
  const std::string_view closing = read_name();
  if (closing != current) {
    fail("mismatched closing tag </" + std::string(closing) + "> for <" +
         std::string(current) + ">");
  }
  expect('>');
  --depth_;
}

void Reader::finish() {
  while (depth_ > 0) close();
  skip_whitespace();
  if (!eof()) fail("trailing content after document root");
}

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
  GRIDLB_ASSERT(depth_ < kMaxDepth && state_ != State::kText);
  make_room(2 + 2 * depth_ + 1 + name.size());
  if (state_ == State::kStartTag) {
    *at_++ = '>';
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

}  // namespace gridlb::xml
