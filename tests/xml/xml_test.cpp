#include "xml/xml.hpp"

#include <gtest/gtest.h>

#include <iterator>
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
  EXPECT_EQ(std::ranges::distance(root.children_named("a")), 2);
  EXPECT_EQ(root.child_text("b"), "2");
  EXPECT_EQ(root.child_text("missing"), "");
}

TEST(XmlElement, AttributesSetAfterChildrenKeepTheirOrder) {
  // The attribute array moves once children follow it in the arena.
  Element root("r");
  root.set_attribute("a", "1");
  root.add_child_with_text("c", "t");
  root.set_attribute("b", "2");
  root.set_attribute("c", "3");
  root.set_attribute("a", "4");
  EXPECT_EQ(write(root, -1), "<r a=\"4\" b=\"2\" c=\"3\"><c>t</c></r>");
}

TEST(XmlElement, LargeDocumentsOutgrowTheFirstBlock) {
  Element root("r");
  for (int i = 0; i < 1000; ++i) {
    Element& child = root.add_child("item");
    child.set_attribute("i", std::to_string(i));
    child.set_text(std::string(static_cast<std::size_t>(i % 50), 'x'));
  }
  const std::string written = write(root);
  const auto parsed = parse(written);
  EXPECT_EQ(std::ranges::distance(parsed->children_named("item")), 1000);
  EXPECT_EQ(write(*parsed), written);
  // Dense input: one node per four bytes, far past the parse's estimate.
  std::string dense = "<r>";
  for (int i = 0; i < 1000; ++i) dense += "<a/>";
  dense += "</r>";
  EXPECT_EQ(std::ranges::distance(parse(dense)->children()), 1000);
}

TEST(XmlElement, MovingANodeOrAParsedRootIsRejected) {
  // Both live inside their document's arena, so only a copy could move
  // them; the agents only ever move built roots.
  auto parsed = parse("<r k=\"v\"><c>t</c></r>");
  EXPECT_THROW(Element moved(std::move(*parsed)), AssertionError);
  EXPECT_EQ(write(*parsed, -1), "<r k=\"v\"><c>t</c></r>");

  Element built("b");
  Element& node = built.add_child("n");
  node.add_child_with_text("leaf", "x");
  EXPECT_THROW(Element moved(std::move(node)), AssertionError);
  EXPECT_EQ(write(built, -1), "<b><n><leaf>x</leaf></n></b>");
}

TEST(XmlElement, MovingABuiltRootKeepsItsTree) {
  Element root("r");
  Element& child = root.add_child("c");
  child.set_text("t");
  const Element moved(std::move(root));
  EXPECT_EQ(write(moved, -1), "<r><c>t</c></r>");
  EXPECT_EQ(&*moved.children().begin(), &child);  // handed over, not copied
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
  // Appended rather than `"l" + std::to_string(i)`, which g++ 12 flags
  // with a false -Wrestrict at -O3.
  const auto level = [](int i) {
    std::string name = "l";
    name += std::to_string(i);
    return name;
  };
  Element root("l0");
  Element* cursor = &root;
  for (int i = 1; i < 20; ++i) cursor = &cursor->add_child(level(i));
  cursor->set_text("bottom");
  const auto parsed = parse(write(root));
  const Element* walk = parsed.get();
  for (int i = 1; i < 20; ++i) {
    walk = walk->child(level(i));
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

}  // namespace
}  // namespace gridlb::xml
