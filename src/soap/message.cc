#include "soap/message.h"

#include <string_view>

#include "base/string_util.h"
#include "soap/marshal.h"
#include "xml/serializer.h"

namespace xrpc::soap {

namespace {

using xml::XmlReader;

// The fixed framing of every envelope: the XML declaration and the
// env:Envelope start tag, which binds `env` and `xsi`. `xrpc` is declared
// on the header entries and on the body's payload element.
constexpr std::string_view kEnvelopeStart =
    "<?xml version=\"1.0\" encoding=\"utf-8\"?>"
    "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\""
    " xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\""
    " xsi:schemaLocation=\"http://monetdb.cwi.nl/XQuery"
    " http://monetdb.cwi.nl/XQuery/XRPC.xsd\">";
constexpr std::string_view kXrpcDeclaration =
    " xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\"";
constexpr std::string_view kEnvelopeEnd = "</env:Body></env:Envelope>";

// Writes node items inside the payload element, where env, xsi and xrpc
// are in scope.
xml::NodeWriter PayloadWriter(std::string* out) {
  return xml::NodeWriter(out, {{"env", xml::kSoapEnvelopeNs},
                               {"xsi", xml::kXsiNs},
                               {"xrpc", xml::kXrpcNs}});
}

void AppendAttribute(std::string_view name, std::string_view value,
                     std::string* out) {
  out->push_back(' ');
  out->append(name);
  out->append("=\"");
  xml::AppendEscapedAttribute(value, out);
  out->push_back('"');
}

// A first guess at the envelope size, so that most envelopes are written
// without regrowing the buffer: framing plus about 40 bytes per call,
// sequence and item (an integer atomic value takes 60).
size_t EstimateSize(size_t items) {
  return kEnvelopeStart.size() + 256 + 40 * items;
}

size_t CountItems(const std::vector<xdm::Sequence>& sequences) {
  size_t items = sequences.size();
  for (const xdm::Sequence& s : sequences) items += s.size();
  return items;
}

// Reads the envelope up to the start tag of the element inside env:Body,
// handing each env:Header entry to `on_header`, which reads it through its
// end tag.
template <typename OnHeader>
Status OpenBody(XmlReader& reader, OnHeader on_header) {
  XRPC_ASSIGN_OR_RETURN(bool root, NextChildElement(reader));
  if (!root || !reader.name().Is(xml::kSoapEnvelopeNs, "Envelope")) {
    return Status::InvalidArgument("SOAP: missing env:Envelope");
  }
  while (true) {
    XRPC_ASSIGN_OR_RETURN(bool child, NextChildElement(reader));
    if (!child) return Status::InvalidArgument("SOAP: missing env:Body");
    if (reader.name().Is(xml::kSoapEnvelopeNs, "Header")) {
      while (true) {
        XRPC_ASSIGN_OR_RETURN(bool entry, NextChildElement(reader));
        if (!entry) break;
        XRPC_RETURN_IF_ERROR(on_header(reader));
      }
    } else if (reader.name().Is(xml::kSoapEnvelopeNs, "Body")) {
      XRPC_ASSIGN_OR_RETURN(bool payload, NextChildElement(reader));
      if (!payload) return Status::InvalidArgument("SOAP: empty env:Body");
      return Status::OK();
    } else {
      XRPC_RETURN_IF_ERROR(reader.Skip());
    }
  }
}

// Reads what follows the payload, so that only a whole, well-formed
// envelope is accepted.
Status Finish(XmlReader& reader) {
  while (true) {
    XRPC_ASSIGN_OR_RETURN(XmlReader::Token token, reader.Next());
    if (token == XmlReader::Token::kEnd) return Status::OK();
  }
}

// Header extensions: xrpc:deadline carries the remaining time budget and
// xrpc:shard the routing scope; unrecognized entries are ignored
// (mustUnderstand-free extensibility, so newer clients interoperate with
// this peer too).
Status ReadRequestHeader(XmlReader& reader, XrpcRequest* out) {
  if (reader.name().Is(xml::kXrpcNs, "deadline")) {
    XRPC_ASSIGN_OR_RETURN(std::string text, ReadStringValue(reader));
    auto budget = ParseInt64(text);
    if (!budget.ok() || budget.value() < 0) {
      return Status::InvalidArgument("SOAP: malformed xrpc:deadline header: \"" +
                                     text +
                                     "\" (expected non-negative micros)");
    }
    out->deadline_us = budget.value();
    return Status::OK();
  }
  if (!reader.name().Is(xml::kXrpcNs, "shard")) return reader.Skip();
  XrpcRequest::ShardScope scope;
  const auto* col = reader.FindAttribute("", "collection");
  const auto* idx = reader.FindAttribute("", "index");
  const auto* ver = reader.FindAttribute("", "catalog-version");
  if (col == nullptr || idx == nullptr || ver == nullptr) {
    return Status::InvalidArgument(
        "SOAP: xrpc:shard header lacks collection/index/catalog-version");
  }
  scope.collection = col->value;
  auto index = ParseInt64(idx->value);
  auto version = ParseInt64(ver->value);
  if (scope.collection.empty() || !index.ok() || index.value() < 0 ||
      !version.ok() || version.value() < 0) {
    return Status::InvalidArgument(
        "SOAP: malformed xrpc:shard header (collection=\"" + scope.collection +
        "\" index=\"" + std::string(idx->value) + "\" catalog-version=\"" +
        std::string(ver->value) + "\")");
  }
  scope.shard_index = static_cast<int>(index.value());
  scope.catalog_version = version.value();
  // data-version is optional: requests from pre-versioning senders carry no
  // attribute and parse as 0 (fence disabled).
  if (const auto* dv = reader.FindAttribute("", "data-version")) {
    auto data_version = ParseInt64(dv->value);
    if (!data_version.ok() || data_version.value() < 0) {
      return Status::InvalidArgument(
          "SOAP: malformed xrpc:shard data-version: \"" +
          std::string(dv->value) + "\"");
    }
    scope.data_version = static_cast<uint64_t>(data_version.value());
  }
  out->shard = std::move(scope);
  return reader.Skip();
}

StatusOr<Fault> ReadFault(XmlReader& reader) {
  Fault out;
  while (true) {
    XRPC_ASSIGN_OR_RETURN(bool part, NextChildElement(reader));
    if (!part) return out;
    const bool code = reader.name().Is(xml::kSoapEnvelopeNs, "Code");
    if (!code && !reader.name().Is(xml::kSoapEnvelopeNs, "Reason")) {
      XRPC_RETURN_IF_ERROR(reader.Skip());
      continue;
    }
    const char* leaf = code ? "Value" : "Text";
    while (true) {
      XRPC_ASSIGN_OR_RETURN(bool entry, NextChildElement(reader));
      if (!entry) break;
      if (!reader.name().Is(xml::kSoapEnvelopeNs, leaf)) {
        XRPC_RETURN_IF_ERROR(reader.Skip());
        continue;
      }
      XRPC_ASSIGN_OR_RETURN(std::string value, ReadStringValue(reader));
      (code ? out.code : out.reason) = std::move(value);
    }
  }
}

}  // namespace

std::string SerializeRequest(const XrpcRequest& request) {
  size_t items = request.calls.size();
  for (const std::vector<xdm::Sequence>& call : request.calls) {
    items += CountItems(call);
  }
  std::string out;
  out.reserve(EstimateSize(items));
  out.append(kEnvelopeStart);
  if (request.deadline_us.has_value() || request.shard.has_value()) {
    out.append("<env:Header>");
    if (request.deadline_us.has_value()) {
      out.append("<xrpc:deadline");
      out.append(kXrpcDeclaration);
      out.push_back('>');
      out.append(std::to_string(*request.deadline_us));
      out.append("</xrpc:deadline>");
    }
    if (request.shard.has_value()) {
      const XrpcRequest::ShardScope& scope = *request.shard;
      out.append("<xrpc:shard");
      out.append(kXrpcDeclaration);
      AppendAttribute("collection", scope.collection, &out);
      AppendAttribute("index", std::to_string(scope.shard_index), &out);
      AppendAttribute("catalog-version", std::to_string(scope.catalog_version),
                      &out);
      if (scope.data_version > 0) {
        AppendAttribute("data-version", std::to_string(scope.data_version),
                        &out);
      }
      out.append("/>");
    }
    out.append("</env:Header>");
  }
  out.append("<env:Body><xrpc:request");
  out.append(kXrpcDeclaration);
  AppendAttribute("module", request.module_ns, &out);
  AppendAttribute("method", request.method, &out);
  AppendAttribute("arity", std::to_string(request.arity), &out);
  if (!request.location.empty()) {
    AppendAttribute("location", request.location, &out);
  }
  if (request.updating) AppendAttribute("updCall", "true", &out);
  AppendAttribute("iter-count", std::to_string(request.calls.size()), &out);
  if (!request.query_id.has_value() && request.calls.empty()) {
    out.append("/>");
  } else {
    out.push_back('>');
    if (request.query_id.has_value()) {
      const QueryId& q = *request.query_id;
      out.append("<xrpc:queryID");
      AppendAttribute("host", q.host, &out);
      AppendAttribute("timestamp", std::to_string(q.timestamp), &out);
      AppendAttribute("timeout", std::to_string(q.timeout_sec), &out);
      out.push_back('>');
      xml::AppendEscapedText(q.id, &out);
      out.append("</xrpc:queryID>");
    }
    xml::NodeWriter writer = PayloadWriter(&out);
    for (const std::vector<xdm::Sequence>& call : request.calls) {
      if (call.empty()) {
        out.append("<xrpc:call/>");
        continue;
      }
      out.append("<xrpc:call>");
      for (const xdm::Sequence& param : call) WriteSequence(param, writer);
      out.append("</xrpc:call>");
    }
    out.append("</xrpc:request>");
  }
  out.append(kEnvelopeEnd);
  return out;
}

StatusOr<XrpcRequest> ParseRequest(std::string_view text) {
  XmlReader reader(text, XmlReader::Mode::kDocument);
  XrpcRequest out;
  XRPC_RETURN_IF_ERROR(OpenBody(
      reader, [&](XmlReader& r) { return ReadRequestHeader(r, &out); }));
  if (!reader.name().Is(xml::kXrpcNs, "request")) {
    return Status::InvalidArgument("SOAP: expected xrpc:request, got " +
                                   reader.name().Clark());
  }
  for (const XmlReader::Attribute& a : reader.attributes()) {
    if (!a.name.uri.empty()) continue;
    const std::string_view name = a.name.local;
    if (name == "module") {
      out.module_ns = a.value;
    } else if (name == "method") {
      out.method = a.value;
    } else if (name == "location") {
      out.location = a.value;
    } else if (name == "arity") {
      XRPC_ASSIGN_OR_RETURN(int64_t arity, ParseInt64(a.value));
      out.arity = static_cast<size_t>(arity);
    } else if (name == "updCall") {
      out.updating = a.value == "true" || a.value == "1";
    }
  }
  while (true) {
    XRPC_ASSIGN_OR_RETURN(bool child, NextChildElement(reader));
    if (!child) break;
    if (reader.name().Is(xml::kXrpcNs, "queryID")) {
      QueryId q;
      if (const auto* a = reader.FindAttribute("", "host")) q.host = a->value;
      if (const auto* a = reader.FindAttribute("", "timestamp")) {
        auto ts = ParseInt64(a->value);
        if (ts.ok()) q.timestamp = ts.value();
      }
      if (const auto* a = reader.FindAttribute("", "timeout")) {
        auto t = ParseInt64(a->value);
        if (t.ok()) q.timeout_sec = t.value();
      }
      XRPC_ASSIGN_OR_RETURN(q.id, ReadStringValue(reader));
      out.query_id = std::move(q);
      continue;
    }
    if (!reader.name().Is(xml::kXrpcNs, "call")) {
      XRPC_RETURN_IF_ERROR(reader.Skip());
      continue;
    }
    std::vector<xdm::Sequence> params;
    while (true) {
      XRPC_ASSIGN_OR_RETURN(bool param, NextChildElement(reader));
      if (!param) break;
      XRPC_ASSIGN_OR_RETURN(xdm::Sequence seq, ReadSequence(reader));
      params.push_back(std::move(seq));
    }
    if (params.size() != out.arity) {
      return Status::InvalidArgument(
          "SOAP: call has " + std::to_string(params.size()) +
          " parameters, expected arity " + std::to_string(out.arity));
    }
    out.calls.push_back(std::move(params));
  }
  if (out.calls.empty()) {
    return Status::InvalidArgument("SOAP: request has no calls");
  }
  XRPC_RETURN_IF_ERROR(Finish(reader));
  return out;
}

std::string SerializeResponse(const XrpcResponse& response) {
  std::string out;
  out.reserve(EstimateSize(CountItems(response.results)));
  out.append(kEnvelopeStart);
  out.append("<env:Body><xrpc:response");
  out.append(kXrpcDeclaration);
  AppendAttribute("module", response.module_ns, &out);
  AppendAttribute("method", response.method, &out);
  if (response.results.empty() && response.participating_peers.empty()) {
    out.append("/>");
  } else {
    out.push_back('>');
    xml::NodeWriter writer = PayloadWriter(&out);
    for (const xdm::Sequence& result : response.results) {
      WriteSequence(result, writer);
    }
    if (!response.participating_peers.empty()) {
      out.append("<xrpc:participatingPeers>");
      for (const std::string& uri : response.participating_peers) {
        out.append("<xrpc:peer");
        AppendAttribute("uri", uri, &out);
        out.append("/>");
      }
      out.append("</xrpc:participatingPeers>");
    }
    out.append("</xrpc:response>");
  }
  out.append(kEnvelopeEnd);
  return out;
}

std::string SerializeFault(const Fault& fault) {
  std::string out;
  out.reserve(kEnvelopeStart.size() + 256 + fault.reason.size());
  out.append(kEnvelopeStart);
  out.append("<env:Body><env:Fault><env:Code><env:Value>");
  xml::AppendEscapedText(fault.code, &out);
  out.append("</env:Value></env:Code><env:Reason><env:Text xml:lang=\"en\">");
  xml::AppendEscapedText(fault.reason, &out);
  out.append("</env:Text></env:Reason></env:Fault>");
  out.append(kEnvelopeEnd);
  return out;
}

Fault FaultFromStatus(const Status& status) {
  Fault f;
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
    case StatusCode::kNotFound:
      f.code = "env:Sender";
      break;
    default:
      f.code = "env:Receiver";
      break;
  }
  f.reason = status.ToString();
  return f;
}

Status StatusFromFault(const Fault& fault) {
  // Deadline/cancellation faults keep their typed status across hops: the
  // reason carries Status::ToString() ("<Code>: <msg>"), and the caller
  // must be able to tell "my budget ran out downstream" (not retryable,
  // feeds deadline metrics) from a generic application fault.
  constexpr std::string_view kDeadlinePrefix = "DeadlineExceeded: ";
  constexpr std::string_view kCancelledPrefix = "Cancelled: ";
  constexpr std::string_view kStaleCatalogPrefix = "StaleCatalog: ";
  if (fault.reason.rfind(kDeadlinePrefix, 0) == 0) {
    return Status::DeadlineExceeded(fault.reason.substr(kDeadlinePrefix.size()));
  }
  if (fault.reason.rfind(kCancelledPrefix, 0) == 0) {
    return Status::Cancelled(fault.reason.substr(kCancelledPrefix.size()));
  }
  // StaleCatalog is the epoch-fencing reject: the peer refused BEFORE
  // executing anything, so the caller may refetch the shard map and
  // re-route the very same call (even an updating one) without violating
  // at-most-once.
  if (fault.reason.rfind(kStaleCatalogPrefix, 0) == 0) {
    return Status::StaleCatalog(fault.reason.substr(kStaleCatalogPrefix.size()));
  }
  // StaleReplica is the data-version fence: this COPY of the fragment is
  // behind, so the caller may retry the identical read at another replica
  // (unlike StaleCatalog, where every copy shares the stale routing).
  constexpr std::string_view kStaleReplicaPrefix = "StaleReplica: ";
  if (fault.reason.rfind(kStaleReplicaPrefix, 0) == 0) {
    return Status::StaleReplica(fault.reason.substr(kStaleReplicaPrefix.size()));
  }
  return Status::SoapFault(fault.code + ": " + fault.reason);
}

StatusOr<XrpcResponse> ParseResponse(std::string_view text) {
  XmlReader reader(text, XmlReader::Mode::kDocument);
  XRPC_RETURN_IF_ERROR(
      OpenBody(reader, [](XmlReader& r) { return r.Skip(); }));
  if (reader.name().Is(xml::kSoapEnvelopeNs, "Fault")) {
    XRPC_ASSIGN_OR_RETURN(Fault fault, ReadFault(reader));
    XRPC_RETURN_IF_ERROR(Finish(reader));
    return StatusFromFault(fault);
  }
  if (!reader.name().Is(xml::kXrpcNs, "response")) {
    return Status::InvalidArgument("SOAP: expected xrpc:response, got " +
                                   reader.name().Clark());
  }
  XrpcResponse out;
  if (const auto* a = reader.FindAttribute("", "module")) {
    out.module_ns = a->value;
  }
  if (const auto* a = reader.FindAttribute("", "method")) out.method = a->value;
  while (true) {
    XRPC_ASSIGN_OR_RETURN(bool child, NextChildElement(reader));
    if (!child) break;
    if (reader.name().Is(xml::kXrpcNs, "sequence")) {
      XRPC_ASSIGN_OR_RETURN(xdm::Sequence result, ReadSequence(reader));
      out.results.push_back(std::move(result));
    } else if (reader.name().Is(xml::kXrpcNs, "participatingPeers")) {
      while (true) {
        XRPC_ASSIGN_OR_RETURN(bool peer, NextChildElement(reader));
        if (!peer) break;
        if (const auto* a = reader.FindAttribute("", "uri")) {
          out.participating_peers.emplace_back(a->value);
        }
        XRPC_RETURN_IF_ERROR(reader.Skip());
      }
    } else {
      XRPC_RETURN_IF_ERROR(reader.Skip());
    }
  }
  XRPC_RETURN_IF_ERROR(Finish(reader));
  return out;
}

}  // namespace xrpc::soap
