#include "xml/xml.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/assert.hpp"

namespace gridlb::xml {
namespace {

TEST(XmlEscape, EscapesAllFiveEntities) {
  EXPECT_EQ(escape("a&b<c>d\"e'f"), "a&amp;b&lt;c&gt;d&quot;e&apos;f");
}

TEST(XmlEscape, LeavesPlainTextAlone) {
  EXPECT_EQ(escape("hello world 123"), "hello world 123");
}

TEST(XmlElement, AttributesUpsert) {
  Element e("x");
  e.set_attribute("k", "1");
  e.set_attribute("k", "2");
  ASSERT_TRUE(e.attribute("k").has_value());
  EXPECT_EQ(*e.attribute("k"), "2");
  EXPECT_EQ(e.attributes().size(), 1u);
}

TEST(XmlElement, MissingAttributeIsNullopt) {
  Element e("x");
  EXPECT_FALSE(e.attribute("nope").has_value());
}

TEST(XmlElement, ChildLookup) {
  Element root("root");
  root.add_child_with_text("a", "1");
  root.add_child_with_text("b", "2");
  root.add_child_with_text("a", "3");
  ASSERT_NE(root.child("a"), nullptr);
  EXPECT_EQ(root.child("a")->text(), "1");
  EXPECT_EQ(root.children_named("a").size(), 2u);
  EXPECT_EQ(root.child_text("b"), "2");
  EXPECT_EQ(root.child_text("missing"), "");
}

TEST(XmlWrite, EmptyElementSelfCloses) {
  Element e("empty");
  EXPECT_EQ(write(e, -1), "<empty/>");
}

TEST(XmlWrite, TextOnlyElement) {
  Element e("name");
  e.set_text("sweep3d");
  EXPECT_EQ(write(e, -1), "<name>sweep3d</name>");
}

TEST(XmlWrite, AttributesAndChildren) {
  Element root("agentgrid");
  root.set_attribute("type", "service");
  root.add_child_with_text("port", "1000");
  EXPECT_EQ(write(root, -1),
            "<agentgrid type=\"service\"><port>1000</port></agentgrid>");
}

TEST(XmlWrite, EscapesTextAndAttributes) {
  Element root("r");
  root.set_attribute("a", "x<y");
  root.set_text("a&b");
  EXPECT_EQ(write(root, -1), "<r a=\"x&lt;y\">a&amp;b</r>");
}

TEST(XmlParse, SimpleDocument) {
  const auto doc = parse("<a><b>text</b></a>");
  EXPECT_EQ(doc->name(), "a");
  ASSERT_NE(doc->child("b"), nullptr);
  EXPECT_EQ(doc->child("b")->text(), "text");
}

TEST(XmlParse, SelfClosingTag) {
  const auto doc = parse("<a><b/><c/></a>");
  EXPECT_EQ(doc->children().size(), 2u);
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
  EXPECT_EQ(doc->children().size(), 1u);
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
  Element root("agentgrid");
  root.set_attribute("type", "request");
  Element& app = root.add_child("application");
  app.add_child_with_text("name", "sweep3d");
  Element& req = root.add_child("requirement");
  req.add_child_with_text("deadline", "17.5");

  for (const int indent : {-1, 0, 2, 4}) {
    const auto parsed = parse(write(root, indent));
    EXPECT_EQ(parsed->name(), "agentgrid");
    EXPECT_EQ(*parsed->attribute("type"), "request");
    EXPECT_EQ(parsed->child("application")->child_text("name"), "sweep3d");
    EXPECT_EQ(parsed->child("requirement")->child_text("deadline"), "17.5");
  }
}

TEST(XmlRoundTrip, DeepNesting) {
  Element root("l0");
  Element* cursor = &root;
  for (int i = 1; i < 20; ++i) {
    cursor = &cursor->add_child("l" + std::to_string(i));
  }
  cursor->set_text("bottom");
  const auto parsed = parse(write(root));
  const Element* walk = parsed.get();
  for (int i = 1; i < 20; ++i) {
    walk = walk->child("l" + std::to_string(i));
    ASSERT_NE(walk, nullptr);
  }
  EXPECT_EQ(walk->text(), "bottom");
}

TEST(XmlRoundTrip, SpecialCharactersSurvive) {
  Element root("r");
  root.set_text("<tag> & \"quoted\" 'apos'");
  root.set_attribute("a", "<&>\"'");
  const auto parsed = parse(write(root));
  EXPECT_EQ(parsed->text(), "<tag> & \"quoted\" 'apos'");
  EXPECT_EQ(*parsed->attribute("a"), "<&>\"'");
}

TEST(XmlAdoptChild, TransfersSubtree) {
  auto child = std::make_unique<Element>("c");
  child->set_text("t");
  Element root("r");
  root.adopt_child(std::move(child));
  EXPECT_EQ(root.child("c")->text(), "t");
}

TEST(XmlAdoptChild, RejectsNull) {
  Element root("r");
  EXPECT_THROW(root.adopt_child(nullptr), AssertionError);
}

}  // namespace
}  // namespace gridlb::xml
