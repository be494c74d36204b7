#ifndef XRPC_XML_PARSER_H_
#define XRPC_XML_PARSER_H_

#include <string_view>

#include "base/statusor.h"
#include "xml/node.h"
#include "xml/reader.h"

namespace xrpc::xml {

/// Non-validating, namespace-aware XML 1.0 parser that builds a DOM from
/// XmlReader events.
///
/// Supported: prolog, comments, PIs, CDATA, character and predefined entity
/// references, namespace declarations (default and prefixed), DOCTYPE is
/// skipped without being processed. Elements nest at most kMaxElementDepth
/// levels. Returns the document node.
StatusOr<NodePtr> ParseXml(std::string_view input);

/// Parses a string that may contain several sibling elements/text (an XML
/// fragment); returns a synthetic document node containing them.
StatusOr<NodePtr> ParseXmlFragment(std::string_view input);

/// Builds the element whose start tag `reader` has just returned, reading
/// through its end tag. The result is a fresh, detached tree.
StatusOr<NodePtr> ReadElement(XmlReader& reader);

/// Appends to `parent` every node that follows, up to the end tag of the
/// element open at the reader's current depth (or the end of input).
Status ReadContent(XmlReader& reader, Node* parent);

}  // namespace xrpc::xml

#endif  // XRPC_XML_PARSER_H_
