#ifndef XRPC_SOAP_MARSHAL_H_
#define XRPC_SOAP_MARSHAL_H_

#include "base/statusor.h"
#include "xdm/item.h"
#include "xml/reader.h"
#include "xml/serializer.h"

namespace xrpc::soap {

/// s2n(): appends the SOAP XRPC representation of `sequence`, an
/// <xrpc:sequence> element (Section 2.2 of the paper), to the envelope text
/// `writer` is writing. The writer's scope must bind the `xrpc` and `xsi`
/// prefixes; node items are serialized through it.
///
/// Encodings (per XRPC.xsd):
///  - atomic values:  <xrpc:atomic-value xsi:type="xs:T">lexical</...>
///  - elements:       <xrpc:element>serialized element</xrpc:element>
///  - documents:      <xrpc:document>serialized root content</xrpc:document>
///  - attributes:     <xrpc:attribute name="value"/>
///  - text:           <xrpc:text>value</xrpc:text>
///  - comments:       <xrpc:comment>value</xrpc:comment>
///  - proc. instr.:   <xrpc:pi target="t">value</xrpc:pi>
void WriteSequence(const xdm::Sequence& sequence, xml::NodeWriter& writer);

/// n2s(): reads the <xrpc:sequence> element whose start tag `reader` has
/// just returned, through its end tag, back into an XDM sequence. Atomic
/// values are cast from their text to their xsi:type.
///
/// Node-typed values are built straight from the reader as *separate XML
/// fragments* with fresh node identities (call-by-value): navigating upward
/// or sideways from them yields empty results and never exposes the SOAP
/// envelope. This mirrors the paper's explicit requirement on n2s().
/// Whitespace is data inside a value and framing between values.
StatusOr<xdm::Sequence> ReadSequence(xml::XmlReader& reader);

/// Advances `reader` to the next child element of the element it is
/// inside, skipping text, comments and PIs between framing elements.
/// Returns false at that element's end tag (or the end of input).
StatusOr<bool> NextChildElement(xml::XmlReader& reader);

/// Concatenated text content of the element whose start tag `reader` has
/// just returned (its string value), read through its end tag.
StatusOr<std::string> ReadStringValue(xml::XmlReader& reader);

}  // namespace xrpc::soap

#endif  // XRPC_SOAP_MARSHAL_H_
