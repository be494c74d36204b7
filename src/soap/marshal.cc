#include "soap/marshal.h"

#include <string>

#include "xdm/atomic.h"
#include "xml/parser.h"

namespace xrpc::soap {

namespace {

using xdm::AtomicType;
using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;
using xml::Node;
using xml::NodeKind;
using xml::NodePtr;
using xml::XmlReader;

// Ends the start tag `<xrpc:kind ...` already written: an empty element
// for empty text, otherwise the escaped text and the end tag.
void CloseTextWrapper(std::string_view kind, std::string_view text,
                      std::string* out) {
  if (text.empty()) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  xml::AppendEscapedText(text, out);
  out->append("</xrpc:");
  out->append(kind);
  out->push_back('>');
}

}  // namespace

void WriteSequence(const Sequence& sequence, xml::NodeWriter& writer) {
  std::string& out = writer.out();
  if (sequence.empty()) {
    out.append("<xrpc:sequence/>");
    return;
  }
  out.append("<xrpc:sequence>");
  for (const Item& item : sequence) {
    if (item.IsAtomic()) {
      const AtomicValue& v = item.atomic();
      out.append("<xrpc:atomic-value xsi:type=\"");
      out.append(AtomicTypeName(v.type()));
      out.push_back('"');
      CloseTextWrapper("atomic-value", v.ToString(), &out);
      continue;
    }
    const Node* n = item.node();
    switch (n->kind()) {
      case NodeKind::kElement:
        out.append("<xrpc:element>");
        writer.Write(*n);
        out.append("</xrpc:element>");
        break;
      case NodeKind::kDocument:
        if (n->children().empty()) {
          out.append("<xrpc:document/>");
          break;
        }
        out.append("<xrpc:document>");
        for (const NodePtr& c : n->children()) writer.Write(*c);
        out.append("</xrpc:document>");
        break;
      case NodeKind::kAttribute:
        out.append("<xrpc:attribute");
        writer.WriteAttribute(*n);
        out.append("/>");
        break;
      case NodeKind::kText:
        out.append("<xrpc:text");
        CloseTextWrapper("text", n->value(), &out);
        break;
      case NodeKind::kComment:
        out.append("<xrpc:comment");
        CloseTextWrapper("comment", n->value(), &out);
        break;
      case NodeKind::kProcessingInstruction:
        out.append("<xrpc:pi target=\"");
        xml::AppendEscapedAttribute(n->name().local, &out);
        out.push_back('"');
        CloseTextWrapper("pi", n->value(), &out);
        break;
    }
  }
  out.append("</xrpc:sequence>");
}

StatusOr<bool> NextChildElement(XmlReader& reader) {
  while (true) {
    XRPC_ASSIGN_OR_RETURN(XmlReader::Token token, reader.Next());
    switch (token) {
      case XmlReader::Token::kStartElement:
        return true;
      case XmlReader::Token::kEndElement:
      case XmlReader::Token::kEnd:
        return false;
      default:
        break;  // framing whitespace, comments, PIs
    }
  }
}

StatusOr<std::string> ReadStringValue(XmlReader& reader) {
  std::string out;
  const size_t depth = reader.depth();
  while (reader.depth() >= depth) {
    XRPC_ASSIGN_OR_RETURN(XmlReader::Token token, reader.Next());
    if (token == XmlReader::Token::kText) out.append(reader.text());
  }
  return out;
}

StatusOr<Sequence> ReadSequence(XmlReader& reader) {
  if (!reader.name().Is(xml::kXrpcNs, "sequence")) {
    return Status::InvalidArgument("n2s: not an xrpc:sequence element");
  }
  Sequence out;
  while (true) {
    XRPC_ASSIGN_OR_RETURN(bool more, NextChildElement(reader));
    if (!more) return out;
    const XmlReader::Name& name = reader.name();
    if (name.uri != xml::kXrpcNs) {
      return Status::InvalidArgument("n2s: unexpected element " +
                                     name.Clark());
    }
    const std::string_view kind = name.local;
    if (kind == "atomic-value") {
      AtomicType type = AtomicType::kUntypedAtomic;
      if (const auto* a = reader.FindAttribute(xml::kXsiNs, "type")) {
        XRPC_ASSIGN_OR_RETURN(type, xdm::AtomicTypeFromName(a->value));
      }
      XRPC_ASSIGN_OR_RETURN(std::string lexical, ReadStringValue(reader));
      XRPC_ASSIGN_OR_RETURN(
          AtomicValue v, AtomicValue::Untyped(std::move(lexical)).CastTo(type));
      out.push_back(Item(std::move(v)));
    } else if (kind == "element") {
      NodePtr elem;
      while (true) {
        XRPC_ASSIGN_OR_RETURN(bool child, NextChildElement(reader));
        if (!child) break;
        if (elem != nullptr) {
          XRPC_RETURN_IF_ERROR(reader.Skip());
          continue;
        }
        XRPC_ASSIGN_OR_RETURN(elem, xml::ReadElement(reader));
      }
      if (elem == nullptr) {
        return Status::InvalidArgument("n2s: empty xrpc:element");
      }
      out.push_back(Item::Node(std::move(elem)));
    } else if (kind == "document") {
      NodePtr doc = Node::NewDocument();
      XRPC_RETURN_IF_ERROR(xml::ReadContent(reader, doc.get()));
      out.push_back(Item::Node(std::move(doc)));
    } else if (kind == "attribute") {
      if (reader.attributes().empty()) {
        return Status::InvalidArgument("n2s: empty xrpc:attribute");
      }
      const XmlReader::Attribute& a = reader.attributes()[0];
      NodePtr attr =
          Node::NewAttribute(a.name.ToQName(), std::string(a.value));
      XRPC_RETURN_IF_ERROR(reader.Skip());
      out.push_back(Item::Node(std::move(attr)));
    } else if (kind == "text") {
      XRPC_ASSIGN_OR_RETURN(std::string value, ReadStringValue(reader));
      out.push_back(Item::Node(Node::NewText(std::move(value))));
    } else if (kind == "comment") {
      XRPC_ASSIGN_OR_RETURN(std::string value, ReadStringValue(reader));
      out.push_back(Item::Node(Node::NewComment(std::move(value))));
    } else if (kind == "pi") {
      const auto* a = reader.FindAttribute("", "target");
      std::string target = a != nullptr ? std::string(a->value) : "pi";
      XRPC_ASSIGN_OR_RETURN(std::string value, ReadStringValue(reader));
      out.push_back(Item::Node(
          Node::NewProcessingInstruction(std::move(target), std::move(value))));
    } else {
      return Status::InvalidArgument("n2s: unknown value kind xrpc:" +
                                     std::string(kind));
    }
  }
}

}  // namespace xrpc::soap
