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
  kTrimmed = 4,  ///< indentation the reader drops around text: ' ' \t \r \n
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

}  // namespace

Reader::Reader(const std::string& document)
    : data_(document.c_str()), size_(document.size()) {
  skip_whitespace();
  skip_declaration();
  skip_whitespace();
  open_element();
}

void Reader::fail(const std::string& message) const {
  throw ParseError(message, pos_);
}

inline char Reader::peek() const {
  if (eof()) fail("unexpected end of input");
  return data_[pos_];
}

inline char Reader::take() {
  const char ch = peek();
  ++pos_;
  return ch;
}

inline void Reader::expect(char ch) {
  if (take() != ch) {
    --pos_;
    fail(std::string("expected '") + ch + "'");
  }
}

inline bool Reader::looking_at(std::string_view prefix) const {
  return std::string_view(data_ + pos_, size_ - pos_).starts_with(prefix);
}

inline void Reader::skip_whitespace() {
  while (is(data_[pos_], kSpace)) ++pos_;
}

void Reader::skip_declaration() {
  if (!looking_at("<?xml")) return;
  const auto end = std::string_view(data_, size_).find("?>", pos_);
  if (end == std::string_view::npos) fail("unterminated XML declaration");
  pos_ = end + 2;
}

void Reader::skip_comment() {
  const auto end = std::string_view(data_, size_).find("-->", pos_ + 4);
  if (end == std::string_view::npos) fail("unterminated comment");
  pos_ = end + 3;
}

inline std::string_view Reader::read_name() {
  const std::size_t start = pos_;
  while (is(data_[pos_], kName)) ++pos_;
  if (pos_ == start) fail("expected a name");
  return {data_ + start, pos_ - start};
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

void Reader::open_element() {
  if (depth_ == kMaxDepth) {
    fail("elements nested deeper than " + std::to_string(kMaxDepth));
  }
  expect('<');
  Open& open = open_[depth_];
  const std::string_view name = read_name();
  open.name = static_cast<std::size_t>(name.data() - data_);
  open.name_size = name.size();
  open.first = slots_used_;
  open.count = 0;
  for (;;) {
    skip_whitespace();
    const char ch = peek();
    if (ch == '/' || ch == '>') break;
    const std::string_view key = read_name();
    skip_whitespace();
    expect('=');
    skip_whitespace();
    const char quote = take();
    if (quote != '"' && quote != '\'') {
      fail("expected quoted attribute value");
    }
    const std::size_t start = pos_;
    const auto* end = static_cast<const char*>(
        std::memchr(data_ + pos_, quote, size_ - pos_));
    pos_ = end == nullptr ? size_ : static_cast<std::size_t>(end - data_);
    if (eof()) fail("unterminated attribute value");
    const std::string_view value(data_ + start, pos_ - start);
    if (value.find('&') != std::string_view::npos) decode(value, nullptr);
    if (open.count != kUnstored) {
      if (slots_used_ == kSlots) {
        open.count = kUnstored;
        slots_used_ = open.first;
      } else {
        slots_[slots_used_++] = {key.data(), value.data(), key.size(),
                                 value.size()};
        ++open.count;
      }
    }
    ++pos_;  // closing quote
  }
  open.tag_end = pos_;
  ++depth_;
  if (peek() == '/') {
    take();
    expect('>');
    closed_in_tag_ = true;
    return;
  }
  expect('>');
}

inline void Reader::close_element() {
  slots_used_ = open_[--depth_].first;
}

std::size_t Reader::attributes_begin() const {
  GRIDLB_ASSERT(depth_ > 0);
  const Open& open = open_[depth_ - 1];
  return open.name + open.name_size;
}

bool Reader::next_attribute(std::size_t& at, std::string_view& key,
                            std::string_view& raw) const {
  while (is(data_[at], kSpace)) ++at;
  if (at >= open_[depth_ - 1].tag_end) return false;
  const std::size_t key_start = at;
  while (is(data_[at], kName)) ++at;
  key = {data_ + key_start, at - key_start};
  while (data_[at] != '"' && data_[at] != '\'') ++at;  // past `=`
  const char quote = data_[at++];
  const auto* end =
      static_cast<const char*>(std::memchr(data_ + at, quote, size_ - at));
  raw = {data_ + at, static_cast<std::size_t>(end - (data_ + at))};
  at = static_cast<std::size_t>(end - data_) + 1;
  return true;
}

std::optional<std::string_view> Reader::attribute(std::string_view key) const {
  GRIDLB_ASSERT(depth_ > 0);
  std::optional<std::string_view> value;
  const Open& open = open_[depth_ - 1];
  if (open.count != kUnstored) {
    for (std::size_t i = open.first; i < open.first + open.count; ++i) {
      const Slot& slot = slots_[i];
      if (std::string_view(slot.key, slot.key_size) == key) {
        value = std::string_view(slot.value, slot.value_size);
      }
    }
  } else {
    std::size_t at = attributes_begin();
    std::string_view key_at;
    std::string_view raw;
    while (next_attribute(at, key_at, raw)) {
      if (key_at == key) value = raw;
    }
  }
  if (value) value = decoded(*value);
  return value;
}

std::string_view Reader::decoded(std::string_view raw) const {
  if (raw.find('&') == std::string_view::npos) return raw;
  std::string& out = decoded_.emplace_front();
  decode(raw, &out);
  return out;
}

inline Reader::Item Reader::step() {
  GRIDLB_ASSERT(depth_ > 0);
  if (closed_in_tag_) {
    closed_in_tag_ = false;
    close_element();
    return Item::kEnd;
  }
  for (;;) {
    // Keep interior whitespace but drop pure-indentation runs, which most
    // often run straight into the next tag.  Entities never decode to
    // whitespace, so trimming before decoding is exact.
    while (is(data_[pos_], kTrimmed)) ++pos_;
    if (!eof() && data_[pos_] != '<') {
      const std::size_t first = pos_;
      const auto* tag = static_cast<const char*>(
          std::memchr(data_ + pos_, '<', size_ - pos_));
      pos_ = tag == nullptr ? size_ : static_cast<std::size_t>(tag - data_);
      std::size_t last = pos_;
      while (is(data_[last - 1], kTrimmed)) --last;
      run_ = {data_ + first, last - first};
      run_has_entity_ = run_.find('&') != std::string_view::npos;
      if (run_has_entity_) decode(run_, nullptr);
      return Item::kText;
    }
    if (eof()) fail("unterminated element <" + std::string(name()) + ">");
    const char after = data_[pos_ + 1];  // the NUL past the end at worst
    if (after == '!' && looking_at("<!--")) {
      skip_comment();
      continue;
    }
    if (after == '/') {
      pos_ += 2;
      const std::string_view closing = read_name();
      if (closing != name()) {
        fail("mismatched closing tag </" + std::string(closing) + "> for <" +
             std::string(name()) + ">");
      }
      skip_whitespace();
      expect('>');
      close_element();
      return Item::kEnd;
    }
    open_element();
    return Item::kChild;
  }
}

Reader::Item Reader::next() { return step(); }

bool Reader::next_child() {
  for (;;) {
    switch (step()) {
      case Item::kChild: return true;
      case Item::kEnd: return false;
      case Item::kText: break;
    }
  }
}

std::string_view Reader::text() {
  const std::size_t depth = depth_;
  std::string_view leaf;
  std::string* joined = nullptr;
  for (;;) {
    const Item item = step();
    if (depth_ < depth) break;  // the element's own end tag
    if (item != Item::kText || depth_ > depth) continue;  // inside a child
    if (joined == nullptr && leaf.empty() && !run_has_entity_) {
      leaf = run_;  // the common leaf: one run, no entity
      continue;
    }
    if (joined == nullptr) {
      joined = &decoded_.emplace_front();
      decode(leaf, joined);
    }
    decode(run_, joined);
  }
  return joined != nullptr ? std::string_view(*joined) : leaf;
}

void Reader::skip() {
  const std::size_t depth = depth_;
  while (depth_ >= depth) step();
}

void Reader::finish() {
  while (depth_ > 0) step();
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

}  // namespace gridlb::xml
