// The messages behind the golden SOAP envelopes in tests/golden/soap/.
//
// Each case builds one request, response or fault; tests/golden/soap/
// <name>.xml holds the exact bytes its serialization must produce. The
// files were captured from the DOM-based codec that preceded the direct
// one, so they pin the wire format across codec rewrites. To add a case,
// append it here and write its file from a build whose serialization is
// trusted.
#ifndef XRPC_TESTS_SOAP_GOLDEN_CASES_H_
#define XRPC_TESTS_SOAP_GOLDEN_CASES_H_

#include <string>
#include <variant>
#include <vector>

#include "soap/message.h"
#include "xml/node.h"
#include "xml/parser.h"

namespace xrpc::soap::golden {

struct Case {
  std::string name;
  std::variant<XrpcRequest, XrpcResponse, Fault> message;
};

inline xdm::Item Atomic(xdm::AtomicValue v) { return xdm::Item(std::move(v)); }

// A node item: the first child of a parsed fragment (or the fragment's
// document node itself when `whole_document`).
inline xdm::Item Parsed(const std::string& xml, bool whole_document = false) {
  xml::NodePtr doc = xml::ParseXmlFragment(xml).value();
  if (whole_document) return xdm::Item::Node(doc);
  return xdm::Item::NodeInTree(doc->children()[0].get(), doc);
}

inline xdm::Item Attr(xml::QName name, std::string value) {
  return xdm::Item::Node(xml::Node::NewAttribute(std::move(name), std::move(value)));
}

inline XrpcRequest Request(size_t arity) {
  XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.location = "http://x.example.org/film.xq";
  req.arity = arity;
  return req;
}

inline std::vector<Case> Cases() {
  using xdm::AtomicValue;
  using xdm::Sequence;
  using xml::Node;
  using xml::QName;
  std::vector<Case> cases;

  {  // Every atomic type, the empty string and whitespace-only strings.
    XrpcRequest req = Request(1);
    req.calls.push_back({Sequence{
        Atomic(AtomicValue::Integer(-123456)), Atomic(AtomicValue::Double(2.5e-3)),
        Atomic(AtomicValue::Decimal(1.25)), Atomic(AtomicValue::Boolean(false)),
        Atomic(AtomicValue::String("Sean Connery")), Atomic(AtomicValue::String("")),
        Atomic(AtomicValue::String("  ")), Atomic(AtomicValue::String(" \n\t ")),
        Atomic(AtomicValue::Untyped("u")), Atomic(AtomicValue::QNameValue("xs:integer")),
        Atomic(AtomicValue::Date("2007-09-23")),
        Atomic(AtomicValue::DateTime("2007-09-23T10:20:30")),
        Atomic(AtomicValue::AnyUri("xrpc://y.example.org"))}});
    cases.push_back({"request_atomic_types", std::move(req)});
  }
  {  // Every node kind, with empty and whitespace-only content.
    XrpcRequest req = Request(2);
    Sequence nodes{Parsed("<name pos=\"1\">The Rock</name>"),
                   Parsed("<d><x/><!--c--><?p q?></d>", /*whole_document=*/true),
                   xdm::Item::Node(Node::NewDocument()),
                   Attr(QName("x"), "y"),
                   xdm::Item::Node(Node::NewText("some text")),
                   xdm::Item::Node(Node::NewText(" ")),
                   xdm::Item::Node(Node::NewText("")),
                   xdm::Item::Node(Node::NewComment("a comment")),
                   xdm::Item::Node(Node::NewComment("")),
                   xdm::Item::Node(Node::NewProcessingInstruction("tgt", "data")),
                   xdm::Item::Node(Node::NewProcessingInstruction("bare", "")),
                   Parsed("<a> <b/> </a>"),
                   Parsed("<mixed>x <b>y</b> z</mixed>")};
    req.calls.push_back({nodes, Sequence{}});
    cases.push_back({"request_node_kinds", std::move(req)});
  }
  {  // Prefixes that collide with the envelope's, foreign and default
     // namespaces, and attributes that need a generated nsN prefix.
    XrpcRequest req = Request(1);
    Sequence nodes{
        Parsed("<xrpc:deadline xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\">5"
               "</xrpc:deadline>"),
        Parsed("<xrpc:y xmlns:xrpc=\"urn:not-xrpc\" xrpc:a=\"1\"/>"),
        Parsed("<env:z xmlns:env=\"urn:not-env\"><env:w/></env:z>"),
        Parsed("<f:e xmlns:f=\"urn:foreign\" xmlns:g=\"urn:g\" g:k=\"v\">"
               "<f:c/><g:c/></f:e>"),
        Parsed("<e xmlns=\"urn:default\"><c xmlns=\"\"/><d/></e>"),
        Parsed("<s xmlns:soap=\"http://www.w3.org/2003/05/soap-envelope\""
               " soap:mustUnderstand=\"1\" xml:lang=\"nl\"/>"),
        Attr(QName("urn:attr", "a"), "needs a generated prefix"),
        Attr(QName("urn:attr2", "b", "xrpc"), "stored prefix taken"),
        Attr(QName(xml::kXsiNs, "type", "t"), "xs:string"),
        Attr(QName(xml::kXrpcNs, "deadline", "q"), "5"),
        xdm::Item::Node([] {
          // Built, not parsed: a namespaced attribute with no stored prefix
          // on an element in another namespace.
          xml::NodePtr e = Node::NewElement(QName("urn:elem", "n"));
          e->SetAttribute(Node::NewAttribute(QName("urn:elem", "m"), "1"));
          e->SetAttribute(Node::NewAttribute(QName("urn:other", "o"), "2"));
          return e;
        }())};
    req.calls.push_back({nodes});
    cases.push_back({"request_namespaces", std::move(req)});
  }
  {  // Escapes in framing attributes, atomic text and node content.
    XrpcRequest req;
    req.module_ns = "urn:m?a=1&b=\"2\"";
    req.method = "f<g>";
    req.location = "file:///a b/c\td\r\ne.xq";
    req.arity = 1;
    req.calls.push_back({Sequence{
        Atomic(AtomicValue::String("cr\r lf\n tab\t ]]> <&> \"q\" 'a'")),
        Parsed("<e a=\"tab&#9;nl&#10;cr&#13;q&quot;lt&lt;amp&amp;gt>\">"
               "x&#13;y ]]&gt; &lt;&amp;</e>"),
        Attr(QName("k"), "\"q\" 'a' \t\n\r <&>"),
        xdm::Item::Node(Node::NewText("]]> \r <&>")),
        xdm::Item::Node(Node::NewComment("c <&> -")),
        xdm::Item::Node(Node::NewProcessingInstruction("t", "<&>"))}});
    cases.push_back({"request_escapes", std::move(req)});
  }
  {  // queryID, updCall, xrpc:deadline and an unversioned xrpc:shard.
    XrpcRequest req = Request(1);
    req.updating = true;
    QueryId q;
    q.id = "q-1234 <&>";
    q.host = "xrpc://p0.example.org";
    q.timestamp = 987654321;
    q.timeout_sec = 42;
    req.query_id = q;
    req.deadline_us = 1'500'000;
    req.shard = XrpcRequest::ShardScope{"films<&>", 3, 7, 0};
    req.calls.push_back({Sequence{Atomic(AtomicValue::Integer(1))}});
    cases.push_back({"request_headers", std::move(req)});
  }
  {  // A versioned xrpc:shard without a deadline, and an empty queryID.
    XrpcRequest req = Request(1);
    req.location.clear();
    req.query_id = QueryId{};
    req.shard = XrpcRequest::ShardScope{"films", 0, 12, 99};
    req.calls.push_back({Sequence{Atomic(AtomicValue::Integer(1))}});
    cases.push_back({"request_shard_versioned", std::move(req)});
  }
  {  // A zero deadline only, and a Bulk RPC of three calls.
    XrpcRequest req = Request(2);
    req.deadline_us = 0;
    for (int i = 1; i <= 3; ++i) {
      req.calls.push_back({Sequence{Atomic(AtomicValue::Integer(i))},
                           i == 2 ? Sequence{}
                                  : Sequence{Parsed("<n>" + std::to_string(i) +
                                                    "</n>"),
                                             Atomic(AtomicValue::String("s"))}});
    }
    cases.push_back({"request_bulk", std::move(req)});
  }
  {  // Zero arity: every call is an empty xrpc:call.
    XrpcRequest req = Request(0);
    req.calls.push_back({});
    req.calls.push_back({});
    cases.push_back({"request_zero_arity", std::move(req)});
  }
  {  // Results for three calls and the peers that took part.
    XrpcResponse resp;
    resp.module_ns = "films";
    resp.method = "filmsByActor";
    resp.results.push_back(Sequence{Atomic(AtomicValue::Integer(7)),
                                    Parsed("<film><name>The Rock</name></film>")});
    resp.results.push_back(Sequence{});
    resp.results.push_back(Sequence{
        Parsed("<a:r xmlns:a=\"urn:a\" a:k=\"1\"/>"), Attr(QName("urn:b", "c"), "d"),
        Parsed("<b:r xmlns:b=\"urn:a\"/>")});
    resp.participating_peers = {"xrpc://y.example.org", "xrpc://z.example.org?a&b"};
    cases.push_back({"response_multi_peer", std::move(resp)});
  }
  {  // No results and no peers.
    XrpcResponse resp;
    resp.module_ns = "m";
    resp.method = "f";
    cases.push_back({"response_empty", std::move(resp)});
  }
  cases.push_back({"fault", Fault{"env:Sender", "could not load <module> & \"x\"\r"}});
  cases.push_back({"fault_empty", Fault{}});
  return cases;
}

}  // namespace xrpc::soap::golden

#endif  // XRPC_TESTS_SOAP_GOLDEN_CASES_H_
