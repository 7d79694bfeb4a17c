#include "xml/xml.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"
#include "support/xml_tree.hpp"

namespace gridlb::xml {
namespace {

using testing::Node;
using testing::read_tree;

/// Reads all of `document`, checking it.
void read_all(const std::string& document) {
  Reader reader(document);
  reader.finish();
}

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
  // A repeated key keeps its last value; the visit sees every occurrence.
  const std::string document = "<x k=\"1\" k=\"2\"/>";
  const Reader reader(document);
  ASSERT_TRUE(reader.attribute("k").has_value());
  EXPECT_EQ(*reader.attribute("k"), "2");
  std::string visited;
  reader.for_each_attribute([&visited](std::string_view key,
                                       std::string_view value) {
    visited.append(key).append("=").append(value).append(";");
  });
  EXPECT_EQ(visited, "k=1;k=2;");
}

TEST(XmlElement, MissingAttributeIsNullopt) {
  const std::string document = "<x/>";
  EXPECT_FALSE(Reader(document).attribute("nope").has_value());
}

TEST(XmlElement, ChildLookup) {
  // Children are pulled in document order, each read as a leaf's text.
  const std::string document = "<root><a>1</a><b>2</b><a>3</a></root>";
  Reader reader(document);
  std::string seen;
  while (reader.next_child()) {
    seen.append(reader.name()).append("=");
    seen.append(reader.text()).append(";");
  }
  EXPECT_EQ(seen, "a=1;b=2;a=3;");
  reader.finish();
}

TEST(XmlElement, ManyAttributesKeepTheirOrder) {
  std::string input = "<r";
  for (int i = 0; i < 2000; ++i) {
    input += " k";
    input += std::to_string(i);
    input += "=\"\"";
  }
  input += "><c>t</c></r>";
  Reader reader(input);
  std::size_t i = 0;
  reader.for_each_attribute([&i](std::string_view key, std::string_view) {
    EXPECT_EQ(key.substr(1), std::to_string(i));
    ++i;
  });
  EXPECT_EQ(i, 2000u);
  EXPECT_EQ(reader.attribute("k1999"), "");
  ASSERT_TRUE(reader.next_child());
  EXPECT_EQ(reader.name(), "c");
  EXPECT_EQ(reader.text(), "t");
  reader.finish();
}

TEST(XmlElement, LargeDocumentsReadInOrder) {
  Writer writer(0);
  writer.open("r");
  for (int i = 0; i < 1000; ++i) {
    writer.open("item");
    writer.attribute("i", std::to_string(i));
    writer.text(std::string(static_cast<std::size_t>(i % 50), 'x'));
    writer.close();
  }
  writer.close();
  const std::string written = std::move(writer).finish();
  Reader reader(written);
  int i = 0;
  while (reader.next_child()) {
    EXPECT_EQ(reader.name(), "item");
    EXPECT_EQ(*reader.attribute("i"), std::to_string(i));
    EXPECT_EQ(reader.text().size(), static_cast<std::size_t>(i % 50));
    ++i;
  }
  EXPECT_EQ(i, 1000);
  reader.finish();
  // Dense input: one element per four bytes.
  std::string dense = "<r>";
  for (int j = 0; j < 1000; ++j) dense += "<a/>";
  dense += "</r>";
  EXPECT_EQ(read_tree(dense).count("a"), 1000u);
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
  EXPECT_EQ(Reader(document).attribute("k"), "<&>\"'");
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
  const Node parsed = read_tree(written);
  EXPECT_EQ(parsed.text, "ab");
  EXPECT_EQ(parsed.child_text("c"), "t");
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
  const std::string document = "<a><b>text</b></a>";
  Reader reader(document);
  EXPECT_EQ(reader.name(), "a");
  ASSERT_TRUE(reader.next_child());
  EXPECT_EQ(reader.name(), "b");
  EXPECT_EQ(reader.text(), "text");
  EXPECT_EQ(reader.name(), "a");
  EXPECT_FALSE(reader.next_child());
  reader.finish();
}

TEST(XmlParse, SelfClosingTag) {
  const std::string document = "<a><b/><c/></a>";
  Reader reader(document);
  using Item = Reader::Item;
  EXPECT_EQ(reader.next(), Item::kChild);
  EXPECT_EQ(reader.name(), "b");
  EXPECT_EQ(reader.next(), Item::kEnd);
  EXPECT_EQ(reader.next(), Item::kChild);
  EXPECT_EQ(reader.name(), "c");
  EXPECT_EQ(reader.text(), "");
  EXPECT_EQ(reader.next(), Item::kEnd);
  reader.finish();
}

TEST(XmlParse, Attributes) {
  const std::string document = "<a x=\"1\" y='two'/>";
  const Reader reader(document);
  EXPECT_EQ(*reader.attribute("x"), "1");
  EXPECT_EQ(*reader.attribute("y"), "two");
}

TEST(XmlParse, DecodesEntities) {
  const std::string document = "<a t=\"&lt;&gt;\">&amp;&quot;&apos;</a>";
  Reader reader(document);
  EXPECT_EQ(*reader.attribute("t"), "<>");
  EXPECT_EQ(reader.text(), "&\"'");
}

TEST(XmlParse, AcceptsDeclarationAndWhitespace) {
  const std::string document = "  <?xml version=\"1.0\"?>\n  <a/>  ";
  Reader reader(document);
  EXPECT_EQ(reader.name(), "a");
  reader.finish();
}

TEST(XmlParse, SkipsComments) {
  const std::string document = "<a><!-- note --><b/></a>";
  EXPECT_EQ(read_tree(document).children.size(), 1u);
  // A comment splits a leaf's text into runs, which read joined.
  const std::string split = "<a>x<!-- note -->y</a>";
  EXPECT_EQ(Reader(split).text(), "xy");
}

TEST(XmlParse, TrimsIndentationWhitespace) {
  const Node doc = read_tree("<a>\n  <b>x</b>\n</a>");
  EXPECT_EQ(doc.text, "");
  EXPECT_EQ(doc.child_text("b"), "x");
}

TEST(XmlParse, PreservesInteriorTextSpaces) {
  EXPECT_EQ(read_tree("<a>hello world</a>").text, "hello world");
}

TEST(XmlParse, RejectsMismatchedClosingTag) {
  EXPECT_THROW(read_all("<a></b>"), ParseError);
}

TEST(XmlParse, RejectsUnterminatedElement) {
  EXPECT_THROW(read_all("<a><b></b>"), ParseError);
}

TEST(XmlParse, RejectsTrailingContent) {
  EXPECT_THROW(read_all("<a/><b/>"), ParseError);
}

TEST(XmlParse, RejectsUnknownEntity) {
  EXPECT_THROW(read_all("<a>&bogus;</a>"), ParseError);
}

TEST(XmlParse, RejectsUnterminatedAttribute) {
  EXPECT_THROW(read_all("<a x=\"1/>"), ParseError);
}

TEST(XmlParse, ErrorCarriesOffset) {
  try {
    read_all("<a></b>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.offset(), 6u);  // after the closing name
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
  EXPECT_NO_THROW(read_all(nested(64)));
  // Deep enough to overflow a reader whose open elements had no bound.
  for (const std::size_t depth : {65u, 100000u}) {
    try {
      read_all(nested(depth));
      ADD_FAILURE() << "expected ParseError at depth " << depth;
    } catch (const ParseError& error) {
      EXPECT_EQ(error.offset(), 3u * 64u);  // the 65th <a>
    }
  }
}

TEST(XmlReader, ReadsOnlyWhatItIsAskedFor) {
  // The root start tag is read on construction; a malformed body throws
  // only once the reader reaches it.
  const std::string document = "<r type=\"result\"><a>&bogus;</a>";
  const Reader reader(document);
  EXPECT_EQ(reader.attribute("type"), "result");
  Reader body(document);
  EXPECT_THROW(body.finish(), ParseError);
  // A malformed root start tag throws at once.
  for (const std::string bad : {"<r type=result>", "<r type=\"x>", "r/>", ""}) {
    EXPECT_THROW(Reader{bad}, ParseError) << bad;
  }
}

TEST(XmlReader, SkippedChildrenAreStillChecked) {
  const std::string good = "<r><skip a='&lt;'><x>1</x><y/></skip><k>v</k></r>";
  Reader reader(good);
  ASSERT_TRUE(reader.next_child());
  reader.skip();
  ASSERT_TRUE(reader.next_child());
  EXPECT_EQ(reader.text(), "v");
  reader.finish();
  for (const std::string bad :
       {"<r><skip><x></y></skip></r>", "<r><skip a='&no;'/></r>",
        "<r><skip>&no;</skip></r>", "<r><skip>"}) {
    Reader skipping(bad);
    EXPECT_THROW(
        {
          while (skipping.next_child()) skipping.skip();
        },
        ParseError)
        << bad;
  }
}

TEST(XmlReader, LeafTextSkipsChildren) {
  // The element's own runs, joined; a child's text is not its text.
  const std::string document = "<a>x<b>inner</b>y&amp;<c/>z</a>";
  EXPECT_EQ(Reader(document).text(), "xy&z");
}

TEST(XmlReader, PlainValuesAreViewsIntoTheDocument) {
  const std::string document = "<r k=\"v\" e=\"&amp;\"><c>text</c></r>";
  Reader reader(document);
  const auto inside = [&document](std::string_view view) {
    return view.data() >= document.data() &&
           view.data() + view.size() <= document.data() + document.size();
  };
  EXPECT_TRUE(inside(*reader.attribute("k")));
  EXPECT_FALSE(inside(*reader.attribute("e")));  // decoded, so copied
  EXPECT_EQ(reader.attribute("e"), "&");
  ASSERT_TRUE(reader.next_child());
  EXPECT_TRUE(inside(reader.name()));
  EXPECT_TRUE(inside(reader.text()));
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
  EXPECT_EQ(read_tree(pretty), read_tree(compact));
  const Node parsed = read_tree(compact);
  EXPECT_EQ(parsed.name, "agentgrid");
  EXPECT_EQ(parsed.attribute("type"), "request");
  EXPECT_EQ(parsed.child("application")->child_text("name"), "sweep3d");
  EXPECT_EQ(parsed.child("requirement")->child_text("deadline"), "17.5");
  EXPECT_EQ(parsed.text, "");
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
  const std::string written = std::move(writer).finish();
  Reader reader(written);
  EXPECT_EQ(reader.name(), "l0");
  for (int i = 1; i < 20; ++i) {
    ASSERT_TRUE(reader.next_child());
    EXPECT_EQ(reader.name(), level(i));
  }
  EXPECT_EQ(reader.text(), "bottom");
  reader.finish();
}

TEST(XmlRoundTrip, SpecialCharactersSurvive) {
  Writer writer(0);
  writer.open("r");
  writer.attribute("a", "<&>\"'");
  writer.text("<tag> & \"quoted\" 'apos'");
  writer.close();
  const std::string written = std::move(writer).finish();
  Reader reader(written);
  EXPECT_EQ(*reader.attribute("a"), "<&>\"'");
  EXPECT_EQ(reader.text(), "<tag> & \"quoted\" 'apos'");
}

}  // namespace
}  // namespace gridlb::xml
