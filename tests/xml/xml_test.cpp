#include "xml/xml.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace gridlb::xml {
namespace {

/// `<x>text</x>` as the writer writes it.
std::string written_leaf(std::string_view text) {
  Writer writer(0);
  writer.leaf("x", text);
  return std::move(writer).finish();
}

TEST(XmlEscape, EscapesAllFiveEntities) {
  EXPECT_EQ(written_leaf("a&b<c>d\"e'f"),
            "<x>a&amp;b&lt;c&gt;d&quot;e&apos;f</x>\n");
}

TEST(XmlEscape, LeavesPlainTextAlone) {
  EXPECT_EQ(written_leaf("hello world 123"), "<x>hello world 123</x>\n");
}

TEST(XmlElement, AttributesUpsert) {
  // A repeated key keeps its first place and its last value.
  const auto e = parse("<x k=\"1\" k=\"2\"/>");
  ASSERT_TRUE(e->attribute("k").has_value());
  EXPECT_EQ(*e->attribute("k"), "2");
  EXPECT_EQ(e->attributes().size(), 1u);
}

TEST(XmlElement, MissingAttributeIsNullopt) {
  const auto e = parse("<x/>");
  EXPECT_FALSE(e->attribute("nope").has_value());
}

TEST(XmlElement, ChildLookup) {
  const auto root = parse("<root><a>1</a><b>2</b><a>3</a></root>");
  ASSERT_NE(root->child("a"), nullptr);
  EXPECT_EQ(root->child("a")->text(), "1");
  EXPECT_EQ(std::ranges::distance(root->children_named("a")), 2);
  EXPECT_EQ(root->child_text("b"), "2");
  EXPECT_EQ(root->child_text("missing"), "");
}

TEST(XmlElement, AttributesOutgrowingTheFirstBlockKeepTheirOrder) {
  // Two thousand attributes fill the block parse sizes for the input, so
  // the attribute array moves to an overflow block part way.
  std::string input = "<r";
  for (int i = 0; i < 2000; ++i) {
    input += " k";
    input += std::to_string(i);
    input += "=\"\"";
  }
  input += "><c>t</c></r>";
  const auto root = parse(input);
  ASSERT_EQ(root->attributes().size(), 2000u);
  for (std::size_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(root->attributes()[i].key.substr(1), std::to_string(i));
  }
  EXPECT_EQ(root->child_text("c"), "t");
}

TEST(XmlElement, LargeDocumentsOutgrowTheFirstBlock) {
  Writer writer(0);
  writer.open("r");
  for (int i = 0; i < 1000; ++i) {
    writer.open("item");
    writer.attribute("i", std::to_string(i));
    writer.text(std::string(static_cast<std::size_t>(i % 50), 'x'));
    writer.close();
  }
  writer.close();
  const auto parsed = parse(std::move(writer).finish());
  EXPECT_EQ(std::ranges::distance(parsed->children_named("item")), 1000);
  int i = 0;
  for (const Element& item : parsed->children()) {
    EXPECT_EQ(*item.attribute("i"), std::to_string(i));
    EXPECT_EQ(item.text().size(), static_cast<std::size_t>(i % 50));
    ++i;
  }
  // Dense input: one node per four bytes, far past the parse's estimate.
  std::string dense = "<r>";
  for (int j = 0; j < 1000; ++j) dense += "<a/>";
  dense += "</r>";
  EXPECT_EQ(std::ranges::distance(parse(dense)->children()), 1000);
}

TEST(XmlWrite, EmptyElementSelfCloses) {
  Writer writer(0);
  writer.open("empty");
  writer.close();
  EXPECT_EQ(std::move(writer).finish(), "<empty/>\n");
  Writer leaf(0);
  leaf.leaf("empty", "");
  EXPECT_EQ(std::move(leaf).finish(), "<empty/>\n");
}

TEST(XmlWrite, TextOnlyElement) {
  Writer writer(0);
  writer.leaf("name", "sweep3d");
  EXPECT_EQ(std::move(writer).finish(), "<name>sweep3d</name>\n");
}

TEST(XmlWrite, AttributesAndChildren) {
  Writer writer(0);
  writer.open("agentgrid");
  writer.attribute("type", "service");
  writer.open("agent");
  writer.leaf("port", "1000");
  writer.leaf("empty", "");
  writer.close();
  writer.close();
  EXPECT_EQ(std::move(writer).finish(),
            "<agentgrid type=\"service\">\n"
            "  <agent>\n"
            "    <port>1000</port>\n"
            "    <empty/>\n"
            "  </agent>\n"
            "</agentgrid>\n");
}

TEST(XmlWrite, EscapesTextAndAttributes) {
  Writer writer(0);
  writer.open("r");
  writer.attribute("a", "x<y");
  writer.text("a&b");
  writer.close();
  EXPECT_EQ(std::move(writer).finish(), "<r a=\"x&lt;y\">a&amp;b</r>\n");
}

TEST(XmlWrite, StampsTheRootStartTag) {
  // Last among the root's attributes, escaped, also on a self-closing root.
  std::string document = "<r a=\"1\">\n  <c/>\n</r>\n";
  stamp_root(document, "k", "<&>\"'");
  EXPECT_EQ(document,
            "<r a=\"1\" k=\"&lt;&amp;&gt;&quot;&apos;\">\n  <c/>\n</r>\n");
  std::string empty = "<agentgrid type=\"pull\"/>\n";
  stamp_root(empty, "msgid", "42");
  EXPECT_EQ(empty, "<agentgrid type=\"pull\" msgid=\"42\"/>\n");
  std::string bare = "<r/>\n";
  stamp_root(bare, "k", "v");
  EXPECT_EQ(bare, "<r k=\"v\"/>\n");
  EXPECT_EQ(*parse(document)->attribute("k"), "<&>\"'");
}

TEST(XmlWrite, MixedContentReadsBack) {
  // Inline text, then the children on lines of their own.
  Writer writer(0);
  writer.open("r");
  writer.text("a");
  writer.text("b");
  writer.leaf("c", "t");
  writer.close();
  const std::string written = std::move(writer).finish();
  EXPECT_EQ(written, "<r>ab\n  <c>t</c>\n</r>\n");
  const auto parsed = parse(written);
  EXPECT_EQ(parsed->text(), "ab");
  EXPECT_EQ(parsed->child_text("c"), "t");
}

TEST(XmlWrite, RejectsMisnestedCalls) {
  Writer late(0);
  late.open("r");
  late.leaf("c", "t");
  EXPECT_THROW(late.attribute("k", "v"), AssertionError);  // after a child
  EXPECT_THROW(late.text("t"), AssertionError);
  Writer unclosed(0);
  unclosed.open("r");
  EXPECT_THROW((void)std::move(unclosed).finish(), AssertionError);
  Writer stray(0);
  EXPECT_THROW(stray.close(), AssertionError);
  Writer deep(0);
  for (std::size_t i = 0; i < kMaxDepth; ++i) deep.open("a");
  EXPECT_THROW(deep.open("a"), AssertionError);
}

TEST(XmlParse, SimpleDocument) {
  const auto doc = parse("<a><b>text</b></a>");
  EXPECT_EQ(doc->name(), "a");
  ASSERT_NE(doc->child("b"), nullptr);
  EXPECT_EQ(doc->child("b")->text(), "text");
}

TEST(XmlParse, SelfClosingTag) {
  const auto doc = parse("<a><b/><c/></a>");
  EXPECT_EQ(std::ranges::distance(doc->children()), 2);
}

TEST(XmlParse, Attributes) {
  const auto doc = parse("<a x=\"1\" y='two'/>");
  EXPECT_EQ(*doc->attribute("x"), "1");
  EXPECT_EQ(*doc->attribute("y"), "two");
}

TEST(XmlParse, DecodesEntities) {
  const auto doc = parse("<a t=\"&lt;&gt;\">&amp;&quot;&apos;</a>");
  EXPECT_EQ(*doc->attribute("t"), "<>");
  EXPECT_EQ(doc->text(), "&\"'");
}

TEST(XmlParse, AcceptsDeclarationAndWhitespace) {
  const auto doc = parse("  <?xml version=\"1.0\"?>\n  <a/>  ");
  EXPECT_EQ(doc->name(), "a");
}

TEST(XmlParse, SkipsComments) {
  const auto doc = parse("<a><!-- note --><b/></a>");
  EXPECT_EQ(std::ranges::distance(doc->children()), 1);
}

TEST(XmlParse, TrimsIndentationWhitespace) {
  const auto doc = parse("<a>\n  <b>x</b>\n</a>");
  EXPECT_EQ(doc->text(), "");
  EXPECT_EQ(doc->child("b")->text(), "x");
}

TEST(XmlParse, PreservesInteriorTextSpaces) {
  const auto doc = parse("<a>hello world</a>");
  EXPECT_EQ(doc->text(), "hello world");
}

TEST(XmlParse, RejectsMismatchedClosingTag) {
  EXPECT_THROW(parse("<a></b>"), ParseError);
}

TEST(XmlParse, RejectsUnterminatedElement) {
  EXPECT_THROW(parse("<a><b></b>"), ParseError);
}

TEST(XmlParse, RejectsTrailingContent) {
  EXPECT_THROW(parse("<a/><b/>"), ParseError);
}

TEST(XmlParse, RejectsUnknownEntity) {
  EXPECT_THROW(parse("<a>&bogus;</a>"), ParseError);
}

TEST(XmlParse, RejectsUnterminatedAttribute) {
  EXPECT_THROW(parse("<a x=\"1/>"), ParseError);
}

TEST(XmlParse, ErrorCarriesOffset) {
  try {
    (void)parse("<a></b>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_GT(error.offset(), 0u);
    EXPECT_NE(std::string(error.what()).find("byte"), std::string::npos);
  }
}

TEST(XmlParse, BoundsNestingDepth) {
  const auto nested = [](std::size_t depth) {
    std::string document;
    for (std::size_t i = 0; i < depth; ++i) document += "<a>";
    for (std::size_t i = 0; i < depth; ++i) document += "</a>";
    return document;
  };
  EXPECT_NO_THROW((void)parse(nested(64)));
  // Deep enough to overflow the stack of a parser that recurses unbounded.
  for (const std::size_t depth : {65u, 100000u}) {
    try {
      (void)parse(nested(depth));
      ADD_FAILURE() << "expected ParseError at depth " << depth;
    } catch (const ParseError& error) {
      EXPECT_EQ(error.offset(), 3u * 64u);  // the 65th <a>
    }
  }
}

TEST(XmlRoundTrip, CompactAndPretty) {
  // The parser reads a document the same with or without the writer's
  // line breaks and indentation.
  Writer writer(0);
  writer.open("agentgrid");
  writer.attribute("type", "request");
  writer.open("application");
  writer.leaf("name", "sweep3d");
  writer.close();
  writer.open("requirement");
  writer.leaf("deadline", "17.5");
  writer.close();
  writer.close();
  const std::string pretty = std::move(writer).finish();
  const std::string compact =
      "<agentgrid type=\"request\"><application><name>sweep3d</name>"
      "</application><requirement><deadline>17.5</deadline></requirement>"
      "</agentgrid>";
  for (const std::string& document : {pretty, compact}) {
    const auto parsed = parse(document);
    EXPECT_EQ(parsed->name(), "agentgrid");
    EXPECT_EQ(*parsed->attribute("type"), "request");
    EXPECT_EQ(parsed->child("application")->child_text("name"), "sweep3d");
    EXPECT_EQ(parsed->child("requirement")->child_text("deadline"), "17.5");
    EXPECT_EQ(parsed->text(), "");
  }
}

TEST(XmlRoundTrip, DeepNesting) {
  // Appended rather than `"l" + std::to_string(i)`, which g++ 12 flags
  // with a false -Wrestrict at -O3.
  const auto level = [](int i) {
    std::string name = "l";
    name += std::to_string(i);
    return name;
  };
  std::vector<std::string> names;
  for (int i = 0; i < 20; ++i) names.push_back(level(i));
  Writer writer(0);
  for (int i = 0; i < 19; ++i) writer.open(names[static_cast<std::size_t>(i)]);
  writer.leaf(names[19], "bottom");
  for (int i = 0; i < 19; ++i) writer.close();
  const auto parsed = parse(std::move(writer).finish());
  const Element* walk = parsed.get();
  EXPECT_EQ(walk->name(), "l0");
  for (int i = 1; i < 20; ++i) {
    walk = walk->child(level(i));
    ASSERT_NE(walk, nullptr);
  }
  EXPECT_EQ(walk->text(), "bottom");
}

TEST(XmlRoundTrip, SpecialCharactersSurvive) {
  Writer writer(0);
  writer.open("r");
  writer.attribute("a", "<&>\"'");
  writer.text("<tag> & \"quoted\" 'apos'");
  writer.close();
  const auto parsed = parse(std::move(writer).finish());
  EXPECT_EQ(parsed->text(), "<tag> & \"quoted\" 'apos'");
  EXPECT_EQ(*parsed->attribute("a"), "<&>\"'");
}

}  // namespace
}  // namespace gridlb::xml
