#include "xml/xml.hpp"


#include "common/assert.hpp"

namespace gridlb::xml {

ParseError::ParseError(const std::string& message, std::size_t byte_offset)
    : std::runtime_error(message + " (at byte " + std::to_string(byte_offset) +
                         ")"),
      offset_(byte_offset) {}

void Element::set_attribute(std::string key, std::string value) {
  for (auto& [existing_key, existing_value] : attributes_) {
    if (existing_key == key) {
      existing_value = std::move(value);
      return;
    }
  }
  attributes_.emplace_back(std::move(key), std::move(value));
}

std::optional<std::string_view> Element::attribute(
    std::string_view key) const {
  for (const auto& [existing_key, value] : attributes_) {
    if (existing_key == key) return value;
  }
  return std::nullopt;
}

Element& Element::add_child(std::string name) {
  children_.push_back(std::make_unique<Element>(std::move(name)));
  return *children_.back();
}

Element& Element::add_child_with_text(std::string name, std::string text) {
  Element& child = add_child(std::move(name));
  child.set_text(std::move(text));
  return child;
}

Element& Element::adopt_child(std::unique_ptr<Element> child) {
  GRIDLB_REQUIRE(child != nullptr, "adopt_child requires a non-null child");
  children_.push_back(std::move(child));
  return *children_.back();
}

const Element* Element::child(std::string_view name) const {
  for (const auto& c : children_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

std::vector<const Element*> Element::children_named(
    std::string_view name) const {
  std::vector<const Element*> out;
  for (const auto& c : children_) {
    if (c->name() == name) out.push_back(c.get());
  }
  return out;
}

std::string Element::child_text(std::string_view name) const {
  const Element* c = child(name);
  return c != nullptr ? c->text() : std::string{};
}

namespace {

/// Appends `raw` to `out` with &, <, >, " and ' escaped, copying each run
/// of plain characters as one slice.
void append_escaped(std::string& out, std::string_view raw) {
  std::size_t plain = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string_view entity;
    switch (raw[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      case '\'': entity = "&apos;"; break;
      default: continue;
    }
    out.append(raw, plain, i - plain);
    out += entity;
    plain = i + 1;
  }
  out.append(raw, plain);
}

void append_indent(std::string& out, int indent, int depth) {
  if (indent > 0) out.append(static_cast<std::size_t>(indent * depth), ' ');
}

void write_element(std::string& out, const Element& element, int indent,
                   int depth) {
  append_indent(out, indent, depth);
  out += '<';
  out += element.name();
  for (const auto& [key, value] : element.attributes()) {
    out += ' ';
    out += key;
    out += "=\"";
    append_escaped(out, value);
    out += '"';
  }
  if (element.children().empty()) {
    if (element.text().empty()) {
      out += "/>";
    } else {
      out += '>';
      append_escaped(out, element.text());
      out += "</";
      out += element.name();
      out += '>';
    }
    if (indent >= 0) out += '\n';
    return;
  }
  out += '>';
  if (indent >= 0) out += '\n';
  if (!element.text().empty()) {
    append_indent(out, indent, depth + 1);
    append_escaped(out, element.text());
    if (indent >= 0) out += '\n';
  }
  for (const auto& child : element.children()) {
    write_element(out, *child, indent, depth + 1);
  }
  append_indent(out, indent, depth);
  out += "</";
  out += element.name();
  out += '>';
  if (indent >= 0) out += '\n';
}

/// isspace in the "C" locale.
constexpr bool is_space(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\v' || ch == '\f' ||
         ch == '\r';
}

/// isalnum in the "C" locale, plus the punctuation XML names use here.
constexpr bool is_name_char(char ch) {
  return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
         (ch >= '0' && ch <= '9') || ch == '_' || ch == '-' || ch == '.' ||
         ch == ':';
}

/// Recursive-descent parser over a string_view with a cursor.
class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  std::unique_ptr<Element> parse_document() {
    skip_whitespace();
    skip_declaration();
    skip_whitespace();
    auto root = parse_element(1);
    skip_whitespace();
    if (pos_ != input_.size()) {
      fail("trailing content after document root");
    }
    return root;
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
    while (!eof() && is_space(input_[pos_])) ++pos_;
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
    while (!eof() && is_name_char(input_[pos_])) ++pos_;
    if (pos_ == start) fail("expected a name");
    return input_.substr(start, pos_ - start);
  }

  /// `raw` with its entities decoded; each run between entities is copied
  /// as one slice.
  std::string decode_entities(std::string_view raw) const {
    std::string out;
    std::size_t plain = 0;
    for (auto amp = raw.find('&'); amp != std::string_view::npos;
         amp = raw.find('&', plain)) {
      out.append(raw, plain, amp - plain);
      const auto semi = raw.find(';', amp);
      if (semi == std::string_view::npos) fail("unterminated entity");
      const std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
      if (entity == "amp") out += '&';
      else if (entity == "lt") out += '<';
      else if (entity == "gt") out += '>';
      else if (entity == "quot") out += '"';
      else if (entity == "apos") out += '\'';
      else fail("unknown entity &" + std::string(entity) + ";");
      plain = semi + 1;
    }
    out.append(raw, plain);
    return out;
  }

  std::string parse_attribute_value() {
    const char quote = take();
    if (quote != '"' && quote != '\'') fail("expected quoted attribute value");
    const std::size_t start = pos_;
    const auto end = input_.find(quote, pos_);
    pos_ = end == std::string_view::npos ? input_.size() : end;
    if (eof()) fail("unterminated attribute value");
    std::string value = decode_entities(input_.substr(start, pos_ - start));
    ++pos_;  // closing quote
    return value;
  }

  std::unique_ptr<Element> parse_element(std::size_t depth) {
    if (depth > kMaxDepth) {
      fail("elements nested deeper than " + std::to_string(kMaxDepth));
    }
    expect('<');
    auto element = std::make_unique<Element>(std::string(parse_name()));
    // Attributes.
    for (;;) {
      skip_whitespace();
      const char ch = peek();
      if (ch == '/' || ch == '>') break;
      std::string key(parse_name());
      skip_whitespace();
      expect('=');
      skip_whitespace();
      element->set_attribute(std::move(key), parse_attribute_value());
    }
    if (peek() == '/') {
      take();
      expect('>');
      return element;
    }
    expect('>');
    // Content: interleaved text, comments and child elements.
    for (;;) {
      const std::size_t text_start = pos_;
      const auto text_end = input_.find('<', pos_);
      pos_ = text_end == std::string_view::npos ? input_.size() : text_end;
      // Keep interior whitespace but drop pure-indentation runs.  Entities
      // never decode to whitespace, so trimming before decoding is exact.
      const std::string_view text =
          input_.substr(text_start, pos_ - text_start);
      const auto first = text.find_first_not_of(" \t\r\n");
      if (first != std::string_view::npos) {
        const auto last = text.find_last_not_of(" \t\r\n");
        std::string decoded =
            decode_entities(text.substr(first, last - first + 1));
        if (element->text().empty()) {
          element->set_text(std::move(decoded));
        } else {
          element->append_text(decoded);
        }
      }
      if (eof()) fail("unterminated element <" + element->name() + ">");
      if (looking_at("<!--")) {
        skip_comment();
        continue;
      }
      if (looking_at("</")) {
        pos_ += 2;
        const std::string_view closing = parse_name();
        if (closing != element->name()) {
          fail("mismatched closing tag </" + std::string(closing) +
               "> for <" + element->name() + ">");
        }
        skip_whitespace();
        expect('>');
        return element;
      }
      element->adopt_child(parse_element(depth + 1));
    }
  }

  std::string_view input_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  append_escaped(out, raw);
  return out;
}

std::string write(const Element& root, int indent) {
  std::string out;
  write_element(out, root, indent, 0);
  return out;
}

std::unique_ptr<Element> parse(std::string_view input) {
  Parser parser(input);
  return parser.parse_document();
}

}  // namespace gridlb::xml
