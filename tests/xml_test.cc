// Unit tests for the XML substrate: pull reader, parser, serializer, node
// tree, document order and identity.

#include <gtest/gtest.h>

#include "xml/node.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xrpc::xml {
namespace {

TEST(XmlParser, ParsesSimpleDocument) {
  auto doc = ParseXml("<films><film>The Rock</film></films>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& root = *doc.value();
  ASSERT_EQ(root.kind(), NodeKind::kDocument);
  ASSERT_EQ(root.children().size(), 1u);
  const Node& films = *root.children()[0];
  EXPECT_EQ(films.name().local, "films");
  ASSERT_EQ(films.children().size(), 1u);
  EXPECT_EQ(films.children()[0]->StringValue(), "The Rock");
}

TEST(XmlParser, ParsesAttributes) {
  auto doc = ParseXml(R"(<person id="p42" name="Alice &amp; Bob"/>)");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& person = *doc.value()->children()[0];
  ASSERT_EQ(person.attributes().size(), 2u);
  const Node* id = person.FindAttribute(QName("id"));
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->value(), "p42");
  const Node* name = person.FindAttribute(QName("name"));
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->value(), "Alice & Bob");
}

TEST(XmlParser, RejectsDuplicateAttributes) {
  auto doc = ParseXml(R"(<a x="1" x="2"/>)");
  EXPECT_FALSE(doc.ok());
}

TEST(XmlParser, ParsesEntitiesAndCharRefs) {
  auto doc = ParseXml("<t>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->StringValue(), "<>&\"'AB");
}

TEST(XmlParser, ParsesCdata) {
  auto doc = ParseXml("<t><![CDATA[a <b> & c]]></t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->StringValue(), "a <b> & c");
}

TEST(XmlParser, ParsesCommentsAndPis) {
  auto doc = ParseXml("<t><!-- note --><?target data?></t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& t = *doc.value()->children()[0];
  ASSERT_EQ(t.children().size(), 2u);
  EXPECT_EQ(t.children()[0]->kind(), NodeKind::kComment);
  EXPECT_EQ(t.children()[0]->value(), " note ");
  EXPECT_EQ(t.children()[1]->kind(), NodeKind::kProcessingInstruction);
  EXPECT_EQ(t.children()[1]->name().local, "target");
  EXPECT_EQ(t.children()[1]->value(), "data");
}

TEST(XmlParser, ResolvesNamespaces) {
  auto doc = ParseXml(
      R"(<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">)"
      R"(<env:Body/></env:Envelope>)");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& env = *doc.value()->children()[0];
  EXPECT_EQ(env.name().ns_uri, kSoapEnvelopeNs);
  EXPECT_EQ(env.name().local, "Envelope");
  EXPECT_EQ(env.children()[0]->name().ns_uri, kSoapEnvelopeNs);
}

TEST(XmlParser, DefaultNamespaceAppliesToElementsNotAttributes) {
  auto doc = ParseXml(R"(<a xmlns="urn:x" b="1"><c/></a>)");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& a = *doc.value()->children()[0];
  EXPECT_EQ(a.name().ns_uri, "urn:x");
  EXPECT_EQ(a.attributes()[0]->name().ns_uri, "");
  EXPECT_EQ(a.children()[0]->name().ns_uri, "urn:x");
}

TEST(XmlParser, UndeclaredPrefixIsAnError) {
  EXPECT_FALSE(ParseXml("<foo:a/>").ok());
}

TEST(XmlParser, MismatchedTagsAreAnError) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
}

TEST(XmlParser, SkipsPrologAndDoctype) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n"
      "<!DOCTYPE note [ <!ENTITY x \"y\"> ]>\n"
      "<note/>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->children()[0]->name().local, "note");
}

TEST(XmlParser, PreservesMixedContentWhitespace) {
  auto doc = ParseXml("<a>x <b/> y</a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->StringValue(), "x  y");
}

TEST(XmlParser, FragmentAllowsSiblings) {
  auto frag = ParseXmlFragment("<a/><b/>text");
  ASSERT_TRUE(frag.ok()) << frag.status();
  EXPECT_EQ(frag.value()->children().size(), 3u);
}

std::string Nested(size_t depth) {
  std::string out;
  for (size_t i = 0; i < depth; ++i) out += "<a>";
  out += "x";
  for (size_t i = 0; i < depth; ++i) out += "</a>";
  return out;
}

TEST(XmlParser, DeepNestingIsAParseError) {
  // Ten thousand levels once overflowed the recursive parser's stack.
  auto doc = ParseXml(Nested(10000));
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_EQ(doc.status().message(),
            "XML parse error at line 1: elements nested deeper than " +
                std::to_string(kMaxElementDepth) + " levels");
  EXPECT_FALSE(ParseXmlFragment(Nested(10000)).ok());
}

TEST(XmlParser, NestingUpToTheBudgetParses) {
  auto doc = ParseXml(Nested(kMaxElementDepth));
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(SerializeNode(*doc.value()), Nested(kMaxElementDepth));
  EXPECT_EQ(ParseXml(Nested(kMaxElementDepth + 1)).status().code(),
            StatusCode::kParseError);
}

TEST(XmlParser, ErrorsNameTheirLine) {
  struct Case {
    const char* input;
    const char* message;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"<a>\n<b></a>", "XML parse error at line 2: mismatched end tag "
                             "</a>, expected </b>"},
           {"<a>\n\n", "XML parse error at line 3: expected end tag for a"},
           {"<a x='1' x='2'/>", "XML parse error at line 1: duplicate "
                                "attribute x"},
           {"<p:a/>", "undeclared namespace prefix: p"},
           {"<a>&bogus;</a>", "XML parse error at line 1: unknown entity "
                              "&bogus;"},
           {"", "XML parse error at line 1: no document element"},
           {"<a/>\ntext", "XML parse error at line 2: text content outside "
                           "the document element"},
           {"<a/></b>", "XML parse error at line 1: unexpected content after "
                        "document element"},
           {"<a b=\"<\"/>", "XML parse error at line 1: '<' in attribute "
                             "value"},
       }) {
    auto doc = ParseXml(c.input);
    ASSERT_FALSE(doc.ok()) << c.input;
    EXPECT_EQ(doc.status().message(), c.message) << c.input;
  }
}

TEST(XmlReader, EventsOfAMixedFragment) {
  XmlReader r("t&amp;<![CDATA[<c>]]>u<p:e xmlns:p=\"urn:p\" p:k=\"&lt;v\""
              " k=\"w\"><!--c--><?pi d?></p:e>",
              XmlReader::Mode::kFragment);
  auto next = [&] { return r.Next().value(); };
  ASSERT_EQ(next(), XmlReader::Token::kText);
  EXPECT_EQ(r.text(), "t&<c>u");  // references and CDATA join one run
  ASSERT_EQ(next(), XmlReader::Token::kStartElement);
  EXPECT_TRUE(r.name().Is("urn:p", "e"));
  EXPECT_EQ(r.name().prefix, "p");
  EXPECT_EQ(r.depth(), 1u);
  ASSERT_EQ(r.attributes().size(), 2u);  // the xmlns declaration is not one
  ASSERT_NE(r.FindAttribute("urn:p", "k"), nullptr);
  EXPECT_EQ(r.FindAttribute("urn:p", "k")->value, "<v");
  EXPECT_EQ(r.FindAttribute("", "k")->value, "w");
  ASSERT_EQ(next(), XmlReader::Token::kComment);
  EXPECT_EQ(r.text(), "c");
  ASSERT_EQ(next(), XmlReader::Token::kProcessingInstruction);
  EXPECT_EQ(r.target(), "pi");
  EXPECT_EQ(r.text(), "d");
  ASSERT_EQ(next(), XmlReader::Token::kEndElement);
  EXPECT_EQ(r.depth(), 0u);
  EXPECT_EQ(next(), XmlReader::Token::kEnd);
  EXPECT_EQ(next(), XmlReader::Token::kEnd);
}

TEST(XmlReader, SelfClosingTagIsStartThenEnd) {
  XmlReader r("<a><b/>x</a>", XmlReader::Mode::kDocument);
  EXPECT_EQ(r.Next().value(), XmlReader::Token::kStartElement);
  EXPECT_EQ(r.Next().value(), XmlReader::Token::kStartElement);
  EXPECT_EQ(r.name().local, "b");
  EXPECT_EQ(r.depth(), 2u);
  EXPECT_EQ(r.Next().value(), XmlReader::Token::kEndElement);
  EXPECT_EQ(r.name().local, "b");
  EXPECT_EQ(r.depth(), 1u);
  EXPECT_EQ(r.Next().value(), XmlReader::Token::kText);
  EXPECT_EQ(r.Next().value(), XmlReader::Token::kEndElement);
  EXPECT_EQ(r.Next().value(), XmlReader::Token::kEnd);
}

TEST(XmlSerializer, RoundTripsDocument) {
  const char* text =
      R"(<films><film name="The Rock &amp; Co"><actor>Sean</actor></film></films>)";
  auto doc = ParseXml(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(SerializeNode(*doc.value()), text);
}

TEST(XmlSerializer, EscapesSpecialCharacters) {
  NodePtr e = Node::NewElement(QName("t"));
  e->AppendChild(Node::NewText("a<b>&c"));
  e->SetAttribute(Node::NewAttribute(QName("x"), "v\"w"));
  EXPECT_EQ(SerializeNode(*e), "<t x=\"v&quot;w\">a&lt;b&gt;&amp;c</t>");
}

TEST(XmlSerializer, EmitsNamespaceDeclarations) {
  NodePtr e = Node::NewElement(QName("urn:ns", "root", "p"));
  e->AppendChild(Node::NewElement(QName("urn:ns", "kid", "p")));
  std::string out = SerializeNode(*e);
  EXPECT_EQ(out, R"(<p:root xmlns:p="urn:ns"><p:kid/></p:root>)");
}

TEST(XmlSerializer, XmlDeclarationOption) {
  auto doc = ParseXml("<a/>");
  ASSERT_TRUE(doc.ok());
  SerializeOptions opts;
  opts.xml_declaration = true;
  EXPECT_EQ(SerializeNode(*doc.value(), opts),
            "<?xml version=\"1.0\" encoding=\"utf-8\"?><a/>");
}

TEST(XmlNode, StringValueConcatenatesDescendantText) {
  auto doc = ParseXml("<a>x<b>y<c>z</c></b>w</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->StringValue(), "xyzw");
}

TEST(XmlNode, CloneCreatesFreshIdentity) {
  auto doc = ParseXml("<a><b/></a>");
  ASSERT_TRUE(doc.ok());
  NodePtr copy = doc.value()->Clone();
  EXPECT_NE(copy.get(), doc.value().get());
  EXPECT_EQ(SerializeNode(*copy), SerializeNode(*doc.value()));
  // Fresh ordinals: the copy's root sorts after the original's.
  EXPECT_LT(CompareDocumentOrder(doc.value().get(), copy.get()), 0);
}

TEST(XmlNode, DocumentOrderWithinTree) {
  auto doc = ParseXml("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  const Node& a = *doc.value()->children()[0];
  const Node* b = a.children()[0].get();
  const Node* c = a.children()[1].get();
  const Node* d = c->children()[0].get();
  EXPECT_LT(CompareDocumentOrder(&a, b), 0);
  EXPECT_LT(CompareDocumentOrder(b, c), 0);
  EXPECT_LT(CompareDocumentOrder(c, d), 0);
  EXPECT_GT(CompareDocumentOrder(d, b), 0);
  EXPECT_EQ(CompareDocumentOrder(d, d), 0);
}

TEST(XmlNode, AttributesOrderBeforeChildren) {
  auto doc = ParseXml(R"(<a x="1"><b/></a>)");
  ASSERT_TRUE(doc.ok());
  const Node& a = *doc.value()->children()[0];
  const Node* attr = a.attributes()[0].get();
  const Node* b = a.children()[0].get();
  EXPECT_LT(CompareDocumentOrder(&a, attr), 0);
  EXPECT_LT(CompareDocumentOrder(attr, b), 0);
}

TEST(XmlNode, IsAncestorOf) {
  auto doc = ParseXml("<a><b><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  const Node& a = *doc.value()->children()[0];
  const Node* c = a.children()[0]->children()[0].get();
  EXPECT_TRUE(IsAncestorOf(&a, c));
  EXPECT_FALSE(IsAncestorOf(c, &a));
  EXPECT_FALSE(IsAncestorOf(c, c));
}

TEST(XmlNode, RemoveChildReindexesSiblings) {
  auto doc = ParseXml("<a><b/><c/><d/></a>");
  ASSERT_TRUE(doc.ok());
  Node* a = doc.value()->children()[0].get();
  a->RemoveChild(a->children()[1].get());
  ASSERT_EQ(a->children().size(), 2u);
  EXPECT_EQ(a->children()[0]->name().local, "b");
  EXPECT_EQ(a->children()[1]->name().local, "d");
  EXPECT_EQ(a->children()[1]->IndexInParent(), 1u);
}

TEST(XmlNode, InsertBeforeMaintainsOrder) {
  auto doc = ParseXml("<a><b/><d/></a>");
  ASSERT_TRUE(doc.ok());
  Node* a = doc.value()->children()[0].get();
  a->InsertBefore(Node::NewElement(QName("c")), a->children()[1].get());
  EXPECT_EQ(SerializeNode(*a), "<a><b/><c/><d/></a>");
}

TEST(XmlSerializer, CdataEndMarkerInTextSurvivesRoundTrip) {
  // "]]>" must never appear literally in character data (XML 1.0 §2.4).
  // AppendEscapedText covers it by escaping every '>', so the marker serializes
  // as "]]&gt;" — pin that, and that a reparse restores the exact value.
  auto doc = ParseXml("<t>if (a]]&gt;b) { }</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->children()[0]->StringValue(), "if (a]]>b) { }");
  std::string wire = SerializeNode(*doc.value());
  EXPECT_EQ(wire, "<t>if (a]]&gt;b) { }</t>");
  auto back = ParseXml(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value()->children()[0]->StringValue(), "if (a]]>b) { }");
}

TEST(XmlSerializer, CarriageReturnInTextSurvivesRoundTrip) {
  // A literal CR in serialized character data would be normalized to LF
  // by any conforming parser on re-parse (XML 1.0 §2.11), silently
  // corrupting the value; only the &#13; character reference survives.
  auto doc = ParseXml("<t>a&#13;b</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->children()[0]->StringValue(), "a\rb");
  std::string wire = SerializeNode(*doc.value());
  EXPECT_EQ(wire, "<t>a&#13;b</t>");
  auto back = ParseXml(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value()->children()[0]->StringValue(), "a\rb");
}

TEST(QNameTest, EqualityIgnoresPrefix) {
  EXPECT_EQ(QName("urn:x", "a", "p"), QName("urn:x", "a", "q"));
  EXPECT_NE(QName("urn:x", "a"), QName("urn:y", "a"));
  EXPECT_EQ(QName("urn:x", "a", "p").Clark(), "{urn:x}a");
  EXPECT_EQ(QName("urn:x", "a", "p").Lexical(), "p:a");
}

}  // namespace
}  // namespace xrpc::xml
