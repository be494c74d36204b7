#include "xml/parser.h"

#include <string>
#include <vector>

namespace xrpc::xml {

namespace {

NodePtr NewElement(const XmlReader& reader) {
  NodePtr elem = Node::NewElement(reader.name().ToQName());
  for (const XmlReader::Attribute& a : reader.attributes()) {
    elem->SetAttribute(
        Node::NewAttribute(a.name.ToQName(), std::string(a.value)));
  }
  return elem;
}

}  // namespace

Status ReadContent(XmlReader& reader, Node* parent) {
  // Elements under construction stay detached until their end tag, so each
  // append touches one level, and a tree is built bottom-up as a
  // recursive-descent parser would build it.
  std::vector<NodePtr> open;
  while (true) {
    XRPC_ASSIGN_OR_RETURN(XmlReader::Token token, reader.Next());
    Node* into = open.empty() ? parent : open.back().get();
    switch (token) {
      case XmlReader::Token::kStartElement:
        open.push_back(NewElement(reader));
        break;
      case XmlReader::Token::kEndElement: {
        if (open.empty()) return Status::OK();
        NodePtr done = std::move(open.back());
        open.pop_back();
        (open.empty() ? parent : open.back().get())
            ->AppendChild(std::move(done));
        break;
      }
      case XmlReader::Token::kText:
        into->AppendChild(Node::NewText(std::string(reader.text())));
        break;
      case XmlReader::Token::kComment:
        into->AppendChild(Node::NewComment(std::string(reader.text())));
        break;
      case XmlReader::Token::kProcessingInstruction:
        into->AppendChild(Node::NewProcessingInstruction(
            std::string(reader.target()), std::string(reader.text())));
        break;
      case XmlReader::Token::kEnd:
        return Status::OK();
    }
  }
}

StatusOr<NodePtr> ReadElement(XmlReader& reader) {
  NodePtr elem = NewElement(reader);
  XRPC_RETURN_IF_ERROR(ReadContent(reader, elem.get()));
  return elem;
}

StatusOr<NodePtr> ParseXml(std::string_view input) {
  XmlReader reader(input, XmlReader::Mode::kDocument);
  NodePtr doc = Node::NewDocument();
  XRPC_RETURN_IF_ERROR(ReadContent(reader, doc.get()));
  return doc;
}

StatusOr<NodePtr> ParseXmlFragment(std::string_view input) {
  XmlReader reader(input, XmlReader::Mode::kFragment);
  NodePtr doc = Node::NewDocument();
  XRPC_RETURN_IF_ERROR(ReadContent(reader, doc.get()));
  return doc;
}

}  // namespace xrpc::xml
