// Tests for the SOAP XRPC codec: s2n/n2s marshaling (including the
// call-by-value fragment-isolation guarantees), request/response/fault
// envelopes, Bulk RPC and the queryID isolation extension, the golden wire
// bytes, and the decoder's answers to malformed and hostile envelopes.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "soap/message.h"
#include "tests/soap_golden_cases.h"
#include "xml/parser.h"
#include "xml/reader.h"
#include "xml/serializer.h"

namespace xrpc::xdm {
// Prints a parameter as "xs:integer(0)". Without it googletest prints an
// AtomicValue as a byte dump, which holds uninitialised padding and heap
// addresses, so the discovered test names changed with every run.
void PrintTo(const AtomicValue& value, std::ostream* os) {
  *os << AtomicTypeName(value.type()) << "(" << value.ToString() << ")";
}
}  // namespace xrpc::xdm

namespace xrpc::soap {
namespace {

using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;

// s2n() as it reaches the wire: `sequence` as the one result of a response.
std::string Wire(const Sequence& sequence) {
  XrpcResponse resp;
  resp.module_ns = "m";
  resp.method = "f";
  resp.results.push_back(sequence);
  return SerializeResponse(resp);
}

// s2n -> wire -> n2s.
StatusOr<Sequence> RoundTrip(const Sequence& sequence) {
  XRPC_ASSIGN_OR_RETURN(XrpcResponse back, ParseResponse(Wire(sequence)));
  if (back.results.size() != 1) {
    return Status::Internal("expected one result sequence");
  }
  return std::move(back.results[0]);
}

Sequence MixedSequence() {
  Sequence seq;
  seq.push_back(Item(AtomicValue::Integer(2)));
  seq.push_back(Item(AtomicValue::Double(3.1)));
  seq.push_back(Item(AtomicValue::String("Sean Connery")));
  seq.push_back(Item(AtomicValue::Boolean(true)));
  auto elem = xml::ParseXmlFragment("<name pos=\"1\">The Rock</name>");
  seq.push_back(Item::Node(elem.value()->children()[0]));
  return seq;
}

TEST(Marshal, AtomicValuesCarryXsiType) {
  Sequence seq{Item(AtomicValue::Integer(2)), Item(AtomicValue::Double(3.1))};
  std::string xml_text = Wire(seq);
  EXPECT_NE(xml_text.find("xsi:type=\"xs:integer\""), std::string::npos);
  EXPECT_NE(xml_text.find("xsi:type=\"xs:double\""), std::string::npos);
  EXPECT_NE(xml_text.find(">2<"), std::string::npos);
  EXPECT_NE(xml_text.find(">3.1<"), std::string::npos);
}

TEST(Marshal, RoundTripsMixedSequence) {
  Sequence seq = MixedSequence();
  auto back = RoundTrip(seq);
  ASSERT_TRUE(back.ok()) << back.status();
  const Sequence& out = back.value();
  ASSERT_EQ(out.size(), seq.size());
  EXPECT_EQ(out[0].atomic().AsInteger(), 2);
  EXPECT_EQ(out[0].atomic().type(), xdm::AtomicType::kInteger);
  EXPECT_DOUBLE_EQ(out[1].atomic().AsDouble(), 3.1);
  EXPECT_EQ(out[2].atomic().ToString(), "Sean Connery");
  EXPECT_TRUE(out[3].atomic().AsBoolean());
  ASSERT_TRUE(out[4].IsNode());
  EXPECT_EQ(xml::SerializeNode(*out[4].node()),
            "<name pos=\"1\">The Rock</name>");
}

TEST(Marshal, AllNodeKindsRoundTrip) {
  Sequence seq;
  auto doc = xml::ParseXml("<d><x/></d>");
  seq.push_back(Item::Node(doc.value()));  // document
  seq.push_back(Item::Node(xml::Node::NewAttribute(xml::QName("x"), "y")));
  seq.push_back(Item::Node(xml::Node::NewText("some text")));
  seq.push_back(Item::Node(xml::Node::NewComment("a comment")));
  seq.push_back(
      Item::Node(xml::Node::NewProcessingInstruction("tgt", "data")));

  auto back = RoundTrip(seq);
  ASSERT_TRUE(back.ok()) << back.status();
  const Sequence& out = back.value();
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].node()->kind(), xml::NodeKind::kDocument);
  EXPECT_EQ(xml::SerializeNode(*out[0].node()), "<d><x/></d>");
  EXPECT_EQ(out[1].node()->kind(), xml::NodeKind::kAttribute);
  EXPECT_EQ(out[1].node()->value(), "y");
  EXPECT_EQ(out[2].node()->kind(), xml::NodeKind::kText);
  EXPECT_EQ(out[2].node()->value(), "some text");
  EXPECT_EQ(out[3].node()->kind(), xml::NodeKind::kComment);
  EXPECT_EQ(out[4].node()->kind(),
            xml::NodeKind::kProcessingInstruction);
  EXPECT_EQ(out[4].node()->name().local, "tgt");
}

TEST(Marshal, CallByValueIsolatesFragments) {
  // Nodes coming out of n2s() must be fresh fragments: upward navigation
  // ends at the value itself — the SOAP envelope is unreachable.
  auto doc = xml::ParseXml("<parent><child>v</child></parent>");
  xml::Node* child = doc.value()->children()[0]->children()[0].get();
  Sequence seq{Item::NodeInTree(child, doc.value())};
  auto back = RoundTrip(seq);
  ASSERT_TRUE(back.ok());
  const xml::Node* unmarshaled = back.value()[0].node();
  EXPECT_EQ(unmarshaled->name().local, "child");
  EXPECT_EQ(unmarshaled->parent(), nullptr);       // no upward navigation
  EXPECT_NE(unmarshaled, child);                   // fresh identity
}

TEST(Marshal, AncestorRelationshipBetweenParamsIsDestroyed) {
  // Passing both an element and its descendant: the remote side sees two
  // unrelated fragments (Section 2.2, call-by-value discussion).
  auto doc = xml::ParseXml("<a><b/></a>");
  xml::Node* a = doc.value()->children()[0].get();
  xml::Node* b = a->children()[0].get();
  Sequence seq{Item::NodeInTree(a, doc.value()),
               Item::NodeInTree(b, doc.value())};
  auto back = RoundTrip(seq);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(
      xml::IsAncestorOf(back.value()[0].node(), back.value()[1].node()));
}

TEST(Message, RequestMatchesPaperExample) {
  // The Q1 request message of Section 2.1.
  XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.location = "http://x.example.org/film.xq";
  req.arity = 1;
  req.calls.push_back({Sequence{Item(AtomicValue::String("Sean Connery"))}});
  std::string text = SerializeRequest(req);
  EXPECT_NE(text.find("<?xml version=\"1.0\" encoding=\"utf-8\"?>"),
            std::string::npos);
  EXPECT_NE(text.find("module=\"films\""), std::string::npos);
  EXPECT_NE(text.find("method=\"filmsByActor\""), std::string::npos);
  EXPECT_NE(text.find("arity=\"1\""), std::string::npos);
  EXPECT_NE(text.find("location=\"http://x.example.org/film.xq\""),
            std::string::npos);
  EXPECT_NE(text.find("Sean Connery"), std::string::npos);
  EXPECT_NE(text.find("http://www.w3.org/2003/05/soap-envelope"),
            std::string::npos);
  EXPECT_NE(text.find("http://monetdb.cwi.nl/XQuery/XRPC.xsd"),
            std::string::npos);

  auto back = ParseRequest(text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->module_ns, "films");
  EXPECT_EQ(back->method, "filmsByActor");
  EXPECT_EQ(back->arity, 1u);
  ASSERT_EQ(back->calls.size(), 1u);
  ASSERT_EQ(back->calls[0].size(), 1u);
  EXPECT_EQ(back->calls[0][0][0].atomic().ToString(), "Sean Connery");
  EXPECT_FALSE(back->updating);
  EXPECT_FALSE(back->query_id.has_value());
}

TEST(Message, BulkRequestCarriesMultipleCalls) {
  // The Bulk RPC example of Section 3.2 (two calls, one per actor).
  XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.arity = 1;
  req.calls.push_back({Sequence{Item(AtomicValue::String("Julie Andrews"))}});
  req.calls.push_back({Sequence{Item(AtomicValue::String("Sean Connery"))}});
  auto back = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->calls.size(), 2u);
  EXPECT_EQ(back->calls[0][0][0].atomic().ToString(), "Julie Andrews");
  EXPECT_EQ(back->calls[1][0][0].atomic().ToString(), "Sean Connery");
}

TEST(Message, QueryIdRoundTrips) {
  XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 0;
  req.calls.push_back({});
  QueryId qid;
  qid.id = "q-1234";
  qid.host = "xrpc://p0.example.org";
  qid.timestamp = 987654321;
  qid.timeout_sec = 42;
  req.query_id = qid;
  auto back = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(back->query_id.has_value());
  EXPECT_EQ(back->query_id->id, "q-1234");
  EXPECT_EQ(back->query_id->host, "xrpc://p0.example.org");
  EXPECT_EQ(back->query_id->timestamp, 987654321);
  EXPECT_EQ(back->query_id->timeout_sec, 42);
}

TEST(Message, UpdatingFlagRoundTrips) {
  XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 0;
  req.updating = true;
  req.calls.push_back({});
  auto back = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->updating);
}

TEST(Message, ArityMismatchRejected) {
  XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 2;  // but the call has only one parameter
  req.calls.push_back({Sequence{Item(AtomicValue::Integer(1))}});
  auto back = ParseRequest(SerializeRequest(req));
  EXPECT_FALSE(back.ok());
}

TEST(Message, ResponseRoundTripsWithPeers) {
  XrpcResponse resp;
  resp.module_ns = "films";
  resp.method = "filmsByActor";
  resp.results.push_back(Sequence{Item(AtomicValue::Integer(7))});
  resp.results.push_back(Sequence{});
  resp.participating_peers = {"xrpc://y.example.org", "xrpc://z.example.org"};
  auto back = ParseResponse(SerializeResponse(resp));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->results.size(), 2u);
  EXPECT_EQ(back->results[0][0].atomic().AsInteger(), 7);
  EXPECT_TRUE(back->results[1].empty());
  ASSERT_EQ(back->participating_peers.size(), 2u);
  EXPECT_EQ(back->participating_peers[0], "xrpc://y.example.org");
}

TEST(Message, FaultBecomesSoapFaultStatus) {
  Fault fault;
  fault.code = "env:Sender";
  fault.reason = "could not load module!";
  std::string text = SerializeFault(fault);
  EXPECT_NE(text.find("env:Fault"), std::string::npos);
  EXPECT_NE(text.find("could not load module!"), std::string::npos);
  auto back = ParseResponse(text);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kSoapFault);
  EXPECT_NE(back.status().message().find("could not load module!"),
            std::string::npos);
}

TEST(Message, FaultFromStatusClassifiesSenderVsReceiver) {
  EXPECT_EQ(FaultFromStatus(Status::NotFound("x")).code, "env:Sender");
  EXPECT_EQ(FaultFromStatus(Status::ParseError("x")).code, "env:Sender");
  EXPECT_EQ(FaultFromStatus(Status::Internal("x")).code, "env:Receiver");
  EXPECT_EQ(FaultFromStatus(Status::EvalError("x")).code, "env:Receiver");
}

TEST(Message, GarbageIsRejected) {
  EXPECT_FALSE(ParseRequest("not xml").ok());
  EXPECT_FALSE(ParseRequest("<a/>").ok());
  EXPECT_FALSE(ParseResponse("<a/>").ok());
}

// ---------------------------------------------------------------------------
// xrpc:deadline header (end-to-end budget propagation)

namespace {
XrpcRequest MinimalRequest() {
  XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 0;
  req.calls.push_back({});
  return req;
}
}  // namespace

TEST(Message, DeadlineHeaderRoundTrips) {
  XrpcRequest req = MinimalRequest();
  req.deadline_us = 1'500'000;
  std::string text = SerializeRequest(req);
  EXPECT_NE(text.find("Header"), std::string::npos);
  EXPECT_NE(text.find(">1500000<"), std::string::npos);
  auto back = ParseRequest(text);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(back->deadline_us.has_value());
  EXPECT_EQ(*back->deadline_us, 1'500'000);
}

TEST(Message, HeaderFreeRequestHasNoDeadlineAndNoHeaderElement) {
  // Absent header => exactly today's wire format and today's semantics.
  std::string text = SerializeRequest(MinimalRequest());
  EXPECT_EQ(text.find("Header"), std::string::npos);
  auto back = ParseRequest(text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_FALSE(back->deadline_us.has_value());
}

TEST(Message, ZeroDeadlineIsValidOnTheWire) {
  // An exhausted-but-present budget parses fine; rejecting it is the
  // server handler's job (admission control), not the codec's.
  XrpcRequest req = MinimalRequest();
  req.deadline_us = 0;
  auto back = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(back->deadline_us.has_value());
  EXPECT_EQ(*back->deadline_us, 0);
}

TEST(Message, MalformedDeadlineHeaderRejected) {
  XrpcRequest req = MinimalRequest();
  req.deadline_us = 777;
  std::string text = SerializeRequest(req);
  const size_t pos = text.find(">777<");
  ASSERT_NE(pos, std::string::npos);
  std::string garbled = text;
  garbled.replace(pos, 5, ">soon<");
  auto back = ParseRequest(garbled);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(back.status().message().find("xrpc:deadline"), std::string::npos);
}

TEST(Message, NegativeDeadlineHeaderRejected) {
  XrpcRequest req = MinimalRequest();
  req.deadline_us = 777;
  std::string text = SerializeRequest(req);
  const size_t pos = text.find(">777<");
  ASSERT_NE(pos, std::string::npos);
  std::string garbled = text;
  garbled.replace(pos, 5, ">-50<");
  auto back = ParseRequest(garbled);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(Message, UnknownHeaderChildrenIgnored) {
  // mustUnderstand-free extensibility: a newer client's extra header
  // entries must not break this peer.
  XrpcRequest req = MinimalRequest();
  req.deadline_us = 42;
  std::string text = SerializeRequest(req);
  const size_t pos = text.find("<xrpc:deadline");
  ASSERT_NE(pos, std::string::npos);
  std::string extended = text;
  extended.insert(pos,
                  "<x:futureExtension xmlns:x=\"urn:example:ext\">opaque"
                  "</x:futureExtension>");
  auto back = ParseRequest(extended);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(back->deadline_us.has_value());
  EXPECT_EQ(*back->deadline_us, 42);
}

TEST(Message, DeadlineAndCancelledStatusesSurviveFaultRoundTrip) {
  // A downstream hop's DeadlineExceeded must arrive typed at the caller —
  // not as a generic SoapFault — so it is never retried and feeds the
  // deadline metrics.
  {
    Fault f = FaultFromStatus(Status::DeadlineExceeded("budget gone"));
    Status back = StatusFromFault(f);
    EXPECT_EQ(back.code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(back.message().find("budget gone"), std::string::npos);
  }
  {
    Fault f = FaultFromStatus(Status::Cancelled("killed by admin"));
    Status back = StatusFromFault(f);
    EXPECT_EQ(back.code(), StatusCode::kCancelled);
    EXPECT_NE(back.message().find("killed by admin"), std::string::npos);
  }
  // Ordinary faults still map to kSoapFault.
  Status generic = StatusFromFault(FaultFromStatus(Status::EvalError("boom")));
  EXPECT_EQ(generic.code(), StatusCode::kSoapFault);
}

// Property sweep: atomic values of every type survive the wire.
class AtomicWireRoundTrip
    : public ::testing::TestWithParam<xdm::AtomicValue> {};

TEST_P(AtomicWireRoundTrip, SurvivesSerializeParse) {
  Sequence seq{Item(GetParam())};
  auto back = RoundTrip(seq);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ(back.value()[0].atomic().type(), GetParam().type());
  EXPECT_EQ(back.value()[0].atomic().ToString(), GetParam().ToString());
}

INSTANTIATE_TEST_SUITE_P(
    Values, AtomicWireRoundTrip,
    ::testing::Values(AtomicValue::Integer(0), AtomicValue::Integer(-123456),
                      AtomicValue::Double(2.5e-3), AtomicValue::Boolean(false),
                      AtomicValue::String("with <markup> & \"quotes\""),
                      AtomicValue::String(""), AtomicValue::Untyped("u"),
                      AtomicValue::Decimal(1.25),
                      AtomicValue::Date("2007-09-23"),
                      AtomicValue::AnyUri("xrpc://y.example.org")));

// ---------------------------------------------------------------------------
// Whitespace: data inside values, framing between them

namespace {
Sequence WhitespaceData() {
  auto doc = xml::ParseXml("<d> <e/> </d>");
  auto doc_node = xml::Node::NewDocument();
  doc_node->AppendChild(xml::Node::NewText(" "));
  doc_node->AppendChild(xml::Node::NewElement(xml::QName("r")));
  return Sequence{Item(AtomicValue::String("  ")),
                  Item(AtomicValue::String(" \n\t ")),
                  Item::Node(xml::Node::NewText(" ")),
                  Item::NodeInTree(doc.value()->children()[0].get(), doc.value()),
                  Item::Node(doc_node)};
}

void ExpectWhitespaceData(const Sequence& out) {
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].atomic().ToString(), "  ");
  EXPECT_EQ(out[1].atomic().ToString(), " \n\t ");
  EXPECT_EQ(out[2].node()->kind(), xml::NodeKind::kText);
  EXPECT_EQ(out[2].node()->value(), " ");
  EXPECT_EQ(xml::SerializeNode(*out[3].node()), "<d> <e/> </d>");
  EXPECT_EQ(out[4].node()->kind(), xml::NodeKind::kDocument);
  EXPECT_EQ(xml::SerializeNode(*out[4].node()), " <r/>");
}
}  // namespace

TEST(Message, WhitespaceOnlyDataSurvivesARequest) {
  XrpcRequest req = MinimalRequest();
  req.arity = 1;
  req.calls = {{WhitespaceData()}};
  auto back = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->calls.size(), 1u);
  ExpectWhitespaceData(back->calls[0][0]);
}

TEST(Message, WhitespaceOnlyDataSurvivesAResponse) {
  auto back = RoundTrip(WhitespaceData());
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectWhitespaceData(*back);
}

TEST(Message, IndentedFramingIsNotData) {
  // A peer that pretty-prints its envelopes: the whitespace between
  // framing elements is dropped, the whitespace inside a value is kept.
  const std::string text = R"(<?xml version="1.0"?>
<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope"
    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
  <env:Header>
    <xrpc:deadline xmlns:xrpc="http://monetdb.cwi.nl/XQuery">7</xrpc:deadline>
  </env:Header>
  <env:Body>
    <xrpc:request xmlns:xrpc="http://monetdb.cwi.nl/XQuery" module="m"
        method="f" arity="2">
      <xrpc:call>
        <xrpc:sequence>
          <xrpc:atomic-value xsi:type="xs:string">  </xrpc:atomic-value>
          <!-- a comment between values -->
          <xrpc:element> <a> <b/> </a> </xrpc:element>
        </xrpc:sequence>
        <xrpc:sequence/>
      </xrpc:call>
    </xrpc:request>
  </env:Body>
</env:Envelope>
)";
  auto back = ParseRequest(text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->deadline_us, 7);
  ASSERT_EQ(back->calls.size(), 1u);
  ASSERT_EQ(back->calls[0].size(), 2u);
  const Sequence& first = back->calls[0][0];
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].atomic().ToString(), "  ");
  EXPECT_EQ(xml::SerializeNode(*first[1].node()), "<a> <b/> </a>");
  EXPECT_TRUE(back->calls[0][1].empty());
}

// ---------------------------------------------------------------------------
// Golden wire bytes (tests/golden/soap/)

namespace {
std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(XRPC_GOLDEN_DIR) + "/" + name + ".xml",
                   std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string Serialize(const golden::Case& c) {
  if (const auto* req = std::get_if<XrpcRequest>(&c.message)) {
    return SerializeRequest(*req);
  }
  if (const auto* resp = std::get_if<XrpcResponse>(&c.message)) {
    return SerializeResponse(*resp);
  }
  return SerializeFault(std::get<Fault>(c.message));
}
}  // namespace

TEST(SoapGolden, SerializationReproducesTheCapturedBytes) {
  for (const golden::Case& c : golden::Cases()) {
    const std::string expected = ReadGolden(c.name);
    ASSERT_FALSE(expected.empty()) << "missing golden file for " << c.name;
    EXPECT_EQ(Serialize(c), expected) << c.name;
  }
}

TEST(SoapGolden, ParseThenSerializeIsTheIdentity) {
  for (const golden::Case& c : golden::Cases()) {
    const std::string wire = ReadGolden(c.name);
    if (std::holds_alternative<XrpcRequest>(c.message)) {
      auto back = ParseRequest(wire);
      ASSERT_TRUE(back.ok()) << c.name << ": " << back.status();
      EXPECT_EQ(SerializeRequest(*back), wire) << c.name;
    } else if (std::holds_alternative<XrpcResponse>(c.message)) {
      auto back = ParseResponse(wire);
      ASSERT_TRUE(back.ok()) << c.name << ": " << back.status();
      EXPECT_EQ(SerializeResponse(*back), wire) << c.name;
    } else {
      // A Fault parses to the Status it stands for; rebuilding the Fault
      // from that Status reproduces the envelope.
      const Fault& fault = std::get<Fault>(c.message);
      auto back = ParseResponse(wire);
      ASSERT_FALSE(back.ok());
      EXPECT_EQ(back.status().code(), StatusCode::kSoapFault) << c.name;
      EXPECT_EQ(back.status().message(), fault.code + ": " + fault.reason)
          << c.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Decoder negatives: every malformed or hostile envelope is a Status.

namespace {
// A one-call request envelope whose single parameter is `sequence_body`
// inside <xrpc:sequence>.
std::string RequestWithSequence(const std::string& sequence_body,
                                const std::string& arity = "1") {
  return "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\""
         " xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\">"
         "<env:Body><xrpc:request xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\""
         " module=\"m\" method=\"f\" arity=\"" +
         arity + "\"><xrpc:call><xrpc:sequence>" + sequence_body +
         "</xrpc:sequence></xrpc:call></xrpc:request></env:Body>"
         "</env:Envelope>";
}

std::string Nested(size_t depth) {
  std::string out;
  for (size_t i = 0; i < depth; ++i) out += "<n>";
  out += "x";
  for (size_t i = 0; i < depth; ++i) out += "</n>";
  return out;
}
}  // namespace

TEST(SoapNegative, WellFormedBaselineParses) {
  auto ok = ParseRequest(RequestWithSequence(
      "<xrpc:atomic-value xsi:type=\"xs:integer\">1</xrpc:atomic-value>"));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->calls[0][0][0].atomic().AsInteger(), 1);
}

TEST(SoapNegative, MissingBodyIsAnError) {
  const std::string text =
      "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">"
      "<env:Header/></env:Envelope>";
  for (const Status& s : {ParseRequest(text).status(),
                          ParseResponse(text).status()}) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("env:Body"), std::string::npos) << s;
  }
  auto empty = ParseRequest(
      "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">"
      "<env:Body> </env:Body></env:Envelope>");
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(SoapNegative, ArityMismatchIsAnError) {
  auto back = ParseRequest(RequestWithSequence("", "2"));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(back.status().message().find("expected arity 2"),
            std::string::npos);
}

TEST(SoapNegative, UnknownXsiTypeIsAnError) {
  auto back = ParseRequest(RequestWithSequence(
      "<xrpc:atomic-value xsi:type=\"xs:bogus\">1</xrpc:atomic-value>"));
  EXPECT_FALSE(back.ok());
  auto uncastable = ParseRequest(RequestWithSequence(
      "<xrpc:atomic-value xsi:type=\"xs:integer\">one</xrpc:atomic-value>"));
  EXPECT_FALSE(uncastable.ok());
}

TEST(SoapNegative, UnknownValueKindIsAnError) {
  auto back = ParseRequest(RequestWithSequence("<xrpc:bogus/>"));
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("unknown value kind xrpc:bogus"),
            std::string::npos);
  auto foreign = ParseRequest(RequestWithSequence("<x/>"));
  ASSERT_FALSE(foreign.ok());
  EXPECT_NE(foreign.status().message().find("unexpected element"),
            std::string::npos);
  EXPECT_FALSE(ParseRequest(RequestWithSequence("<xrpc:element/>")).ok());
  EXPECT_FALSE(ParseRequest(RequestWithSequence("<xrpc:attribute/>")).ok());
}

TEST(SoapNegative, TruncationAnywhereIsAnError) {
  // Every proper prefix of every golden envelope: cut mid-tag, mid-
  // attribute, mid-reference and mid-text. None may parse, and none may
  // pass a Fault off as the answer.
  for (const golden::Case& c : golden::Cases()) {
    const std::string wire = ReadGolden(c.name);
    for (size_t len = 0; len < wire.size(); ++len) {
      const std::string_view cut(wire.data(), len);
      Status s = std::holds_alternative<XrpcRequest>(c.message)
                     ? ParseRequest(cut).status()
                     : ParseResponse(cut).status();
      ASSERT_FALSE(s.ok()) << c.name << " cut at " << len;
      ASSERT_NE(s.code(), StatusCode::kSoapFault) << c.name << " cut at " << len;
    }
  }
}

TEST(SoapNegative, TrailingGarbageIsAnError) {
  const std::string wire = ReadGolden("request_bulk");
  EXPECT_FALSE(ParseRequest(wire + "<").ok());
  EXPECT_FALSE(ParseRequest(wire + "text").ok());
  EXPECT_FALSE(ParseResponse(ReadGolden("fault") + "</x>").ok());
}

TEST(SoapNegative, DeepElementParameterIsAParseError) {
  // Ten thousand levels inside xrpc:element once overflowed the stack of
  // the recursive parser; now the nesting budget stops them.
  auto deep = ParseRequest(
      RequestWithSequence("<xrpc:element>" + Nested(10000) + "</xrpc:element>"));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kParseError);
  EXPECT_NE(deep.status().message().find("nested deeper"), std::string::npos);
  // The envelope takes six levels (Envelope, Body, request, call, sequence,
  // element); data may use the rest of the budget.
  const size_t room = xml::kMaxElementDepth - 6;
  auto fits = ParseRequest(
      RequestWithSequence("<xrpc:element>" + Nested(room) + "</xrpc:element>"));
  ASSERT_TRUE(fits.ok()) << fits.status();
  EXPECT_EQ(fits->calls[0][0][0].node()->StringValue(), "x");
  auto over = ParseRequest(RequestWithSequence("<xrpc:element>" +
                                               Nested(room + 1) +
                                               "</xrpc:element>"));
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace xrpc::soap
