#include "xml/xml.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"

namespace gridlb::xml {
namespace {

/// Reads a document whose root has no children, checking it.
void read_all(const std::string& document) {
  Reader reader(document);
  reader.finish();
}

/// Reads `document` as the root `a` holding `depth - 1` nested `a`s.
void read_nested(const std::string& document, std::size_t depth) {
  Reader reader(document);
  for (std::size_t i = 1; i < depth; ++i) reader.open("a");
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
  // A repeated key keeps its last value.
  const std::string document = "<x k=\"1\" k=\"2\"/>";
  const Reader reader(document);
  ASSERT_TRUE(reader.attribute("k").has_value());
  EXPECT_EQ(*reader.attribute("k"), "2");
}

TEST(XmlElement, MissingAttributeIsNullopt) {
  const std::string document = "<x/>";
  EXPECT_FALSE(Reader(document).attribute("nope").has_value());
}

TEST(XmlElement, ChildLookup) {
  // Children are read in document order, each as a leaf's text; a name may
  // recur.
  const std::string document = "<root><a>1</a><b>2</b><a>3</a></root>";
  Reader reader(document);
  EXPECT_EQ(reader.leaf("a"), "1");
  EXPECT_EQ(reader.leaf("b"), "2");
  EXPECT_TRUE(reader.next_is("a"));
  EXPECT_FALSE(reader.next_is("b"));
  EXPECT_EQ(reader.leaf("a"), "3");
  EXPECT_FALSE(reader.next_is("a"));
  reader.finish();
}

TEST(XmlElement, ManyAttributesKeepTheirOrder) {
  // Up to Reader::kMaxAttributes per start tag, each read by its key;
  // one more is rejected.
  const auto tag = [](std::size_t count) {
    std::string input = "<r";
    for (std::size_t i = 0; i < count; ++i) {
      input += " k";
      input += std::to_string(i);
      input += "=\"";
      input += std::to_string(i);
      input += "\"";
    }
    input += "><c>t</c></r>";
    return input;
  };
  const std::string full = tag(Reader::kMaxAttributes);
  Reader reader(full);
  for (std::size_t i = 0; i < Reader::kMaxAttributes; ++i) {
    const std::string value = std::to_string(i);
    std::string key = "k";
    key += value;
    EXPECT_EQ(reader.attribute(key), value);
  }
  EXPECT_EQ(reader.leaf("c"), "t");
  reader.finish();
  const std::string overfull = tag(Reader::kMaxAttributes + 1);
  EXPECT_THROW(Reader{overfull}, ParseError);
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
  for (int i = 0; i < 1000; ++i) {
    reader.open("item");
    EXPECT_EQ(*reader.attribute("i"), std::to_string(i));
    EXPECT_EQ(reader.text().size(), static_cast<std::size_t>(i % 50));
    reader.close();
  }
  reader.finish();
  // Dense input: one element per four bytes.
  std::string dense = "<r>";
  for (int j = 0; j < 1000; ++j) dense += "<a/>";
  dense += "</r>";
  Reader dense_reader(dense);
  std::size_t count = 0;
  for (; dense_reader.next_is("a"); ++count) dense_reader.leaf("a");
  dense_reader.finish();
  EXPECT_EQ(count, 1000u);
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

TEST(XmlWrite, RejectsMixedContent) {
  // An element with text has no children: the writer cannot write one, and
  // the reader rejects the text beside the children on either side.
  Writer writer(0);
  writer.open("r");
  writer.text("a");
  writer.text("b");
  EXPECT_THROW(writer.open("c"), AssertionError);
  for (const std::string mixed :
       {"<r>ab\n  <c>t</c>\n</r>\n", "<r>\n  <c>t</c>\nab</r>\n"}) {
    Reader reader(mixed);
    EXPECT_THROW(
        {
          reader.leaf("c");
          reader.finish();
        },
        ParseError)
        << mixed;
    Reader as_leaf(mixed);
    EXPECT_THROW(as_leaf.text(), ParseError) << mixed;
  }
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
  reader.open("b");
  EXPECT_EQ(reader.name(), "b");
  EXPECT_EQ(reader.text(), "text");
  reader.close();
  EXPECT_EQ(reader.name(), "a");
  EXPECT_FALSE(reader.next_is("b"));
  reader.finish();
}

TEST(XmlParse, SelfClosingTag) {
  const std::string document = "<a><b/><c/></a>";
  Reader reader(document);
  reader.open("b");
  EXPECT_EQ(reader.name(), "b");
  reader.close();
  reader.open("c");
  EXPECT_EQ(reader.text(), "");
  reader.close();
  EXPECT_EQ(reader.name(), "a");
  reader.finish();
}

TEST(XmlParse, Attributes) {
  const std::string document = "<a x=\"1\" y=\"two\"/>";
  const Reader reader(document);
  EXPECT_EQ(*reader.attribute("x"), "1");
  EXPECT_EQ(*reader.attribute("y"), "two");
}

TEST(XmlParse, RejectsSingleQuotedValues) {
  const std::string document = "<a x=\"1\" y='two'/>";
  EXPECT_THROW(Reader{document}, ParseError);
}

TEST(XmlParse, DecodesEntities) {
  const std::string document = "<a t=\"&lt;&gt;\">&amp;&quot;&apos;</a>";
  Reader reader(document);
  EXPECT_EQ(*reader.attribute("t"), "<>");
  EXPECT_EQ(reader.text(), "&\"'");
}

TEST(XmlParse, RejectsDeclaration) {
  for (const std::string document : {"<?xml version=\"1.0\"?>\n<a/>\n",
                                     "  <?xml version=\"1.0\"?>\n  <a/>  "}) {
    EXPECT_THROW(Reader{document}, ParseError) << document;
  }
  // Whitespace may follow the root, as the writer's newline does.
  const std::string document = "<a/>\n  ";
  Reader reader(document);
  EXPECT_EQ(reader.name(), "a");
  reader.finish();
}

TEST(XmlParse, RejectsComments) {
  const std::string child = "<a><!-- note --><b/></a>";
  Reader before_child(child);
  EXPECT_THROW(before_child.open("b"), ParseError);
  Reader before_end(child);
  EXPECT_THROW(before_end.finish(), ParseError);
  const std::string split = "<a>x<!-- note -->y</a>";
  Reader in_leaf(split);
  EXPECT_THROW(in_leaf.text(), ParseError);
}

TEST(XmlParse, TrimsIndentationWhitespace) {
  // Whitespace between tags is skipped.
  const std::string document = "<a>\n  <b>x</b>\n</a>";
  Reader reader(document);
  EXPECT_EQ(reader.leaf("b"), "x");
  reader.finish();
}

TEST(XmlParse, PreservesInteriorTextSpaces) {
  const std::string document = "<a>hello world</a>";
  EXPECT_EQ(Reader(document).text(), "hello world");
}

TEST(XmlParse, ReadsLeafTextVerbatim) {
  // Leading and trailing spaces, a whitespace-only text and line breaks
  // read back as written.
  for (const std::string_view text :
       {" lead", "trail ", "  both  ", "   ", "\n", " a\n b "}) {
    Writer writer(0);
    writer.open("r");
    writer.leaf("t", text);
    writer.close();
    const std::string written = std::move(writer).finish();
    Reader reader(written);
    EXPECT_EQ(reader.leaf("t"), text) << written;
    reader.finish();
  }
}

TEST(XmlParse, RejectsAChildOtherThanTheOneAskedFor) {
  const std::string document = "<r>\n  <a>1</a>\n  <b>2</b>\n</r>\n";
  Reader in_order(document);
  EXPECT_EQ(in_order.leaf("a"), "1");
  EXPECT_EQ(in_order.leaf("b"), "2");
  in_order.finish();
  // Out of order or unknown.
  Reader out_of_order(document);
  EXPECT_THROW(out_of_order.leaf("b"), ParseError);
  // Missing.
  Reader missing(document);
  missing.leaf("a");
  missing.leaf("b");
  EXPECT_THROW(missing.leaf("c"), ParseError);
  const std::string empty = "<r/>";
  Reader in_empty(empty);
  EXPECT_THROW(in_empty.open("a"), ParseError);
  // Repeated, or left unread.
  Reader unread(document);
  unread.leaf("a");
  EXPECT_THROW(unread.finish(), ParseError);
}

TEST(XmlParse, RejectsMismatchedClosingTag) {
  EXPECT_THROW(read_all("<a></b>"), ParseError);
}

TEST(XmlParse, RejectsUnterminatedElement) {
  const std::string document = "<a><b></b>";
  Reader reader(document);
  reader.leaf("b");
  EXPECT_THROW(reader.finish(), ParseError);
  const std::string leaf = "<a><b>text";
  Reader in_leaf(leaf);
  in_leaf.open("b");
  EXPECT_THROW(in_leaf.text(), ParseError);
}

TEST(XmlParse, RejectsTrailingContent) {
  EXPECT_THROW(read_all("<a/><b/>"), ParseError);
}

TEST(XmlParse, RejectsUnknownEntity) {
  const std::string document = "<a>&bogus;</a>";
  EXPECT_THROW(Reader(document).text(), ParseError);
  EXPECT_THROW(read_all("<a k=\"&bogus;\"/>"), ParseError);
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
  EXPECT_NO_THROW(read_nested(nested(64), 64));
  // Deep enough to overflow a reader whose open elements had no bound.
  for (const std::size_t depth : {65u, 100000u}) {
    try {
      read_nested(nested(depth), depth);
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
  body.open("a");
  EXPECT_THROW(body.text(), ParseError);
  // A malformed root start tag throws at once.
  for (const std::string bad : {"<r type=result>", "<r type=\"x>", "r/>", ""}) {
    EXPECT_THROW(Reader{bad}, ParseError) << bad;
  }
}

/// The `what()` of the ParseError `read` throws, offset included.
template <class Read>
std::string parse_error(Read read) {
  try {
    read();
  } catch (const ParseError& error) {
    return error.what();
  }
  return "no ParseError";
}

TEST(XmlReader, NamesThatShareAPrefixFailAsABadName) {
  // A name is matched as a whole: a longer or shorter name in the
  // expected one's place is the error a byte-by-byte scan reports, at the
  // same offset.
  EXPECT_EQ(parse_error([] {
              const std::string document = "<r><namex>t</namex></r>";
              Reader(document).open("name");
            }),
            "expected <name>, found <namex> (at byte 9)");
  EXPECT_EQ(parse_error([] {
              const std::string document = "<r><nam";
              Reader(document).open("name");
            }),
            "expected <name>, found <nam> (at byte 7)");
  const auto close_leaf = [](const std::string& document) {
    return parse_error([&document] {
      Reader reader(document);
      reader.open("name");
      EXPECT_EQ(reader.text(), "t");
      reader.close();
    });
  };
  EXPECT_EQ(close_leaf("<r><name>t</namex></r>"),
            "mismatched closing tag </namex> for <name> (at byte 17)");
  EXPECT_EQ(close_leaf("<r><name>t</nam></r>"),
            "mismatched closing tag </nam> for <name> (at byte 15)");
  EXPECT_EQ(close_leaf("<r><name>t</nam"),
            "mismatched closing tag </nam> for <name> (at byte 15)");
  EXPECT_EQ(close_leaf("<r><name>t</name </r>"),
            "expected '>' (at byte 16)");
  EXPECT_EQ(close_leaf("<r><name>t</name"),
            "unexpected end of input (at byte 16)");
  EXPECT_EQ(close_leaf("<r><name>t</name></r>"), "no ParseError");
}

TEST(XmlReader, RejectsALeafWithChildren) {
  // A leaf's text runs to its end tag; a child there is not read past.
  for (const std::string document :
       {"<a>x<b>inner</b>y&amp;<c/>z</a>", "<a><b/></a>"}) {
    EXPECT_THROW(Reader(document).text(), ParseError) << document;
  }
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
  reader.open("c");
  EXPECT_TRUE(inside(reader.name()));
  EXPECT_TRUE(inside(reader.text()));
}

TEST(XmlRoundTrip, CompactAndPretty) {
  // The reader reads a document the same with or without the writer's
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
    Reader reader(document);
    EXPECT_EQ(reader.name(), "agentgrid");
    EXPECT_EQ(reader.attribute("type"), "request");
    reader.open("application");
    EXPECT_EQ(reader.leaf("name"), "sweep3d");
    reader.close();
    reader.open("requirement");
    EXPECT_EQ(reader.leaf("deadline"), "17.5");
    reader.close();
    reader.finish();
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
  const std::string written = std::move(writer).finish();
  Reader reader(written);
  EXPECT_EQ(reader.name(), "l0");
  for (int i = 1; i < 20; ++i) reader.open(level(i));
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
