#ifndef XRPC_XML_SERIALIZER_H_
#define XRPC_XML_SERIALIZER_H_

#include <deque>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "xml/node.h"

namespace xrpc::xml {

/// Options controlling serialization.
struct SerializeOptions {
  /// Emit the <?xml version="1.0" encoding="utf-8"?> declaration before a
  /// document node.
  bool xml_declaration = false;
  /// Pretty-print with two-space indentation. Text content is emitted
  /// verbatim; only purely-structural element content is indented.
  bool indent = false;
};

/// Serializes a node (and its subtree) to XML text.
///
/// Namespace declarations are synthesized where a QName's URI is not bound
/// in the enclosing scope; prefixes stored on the QName are reused when
/// possible and fresh `nsN` prefixes are generated otherwise.
std::string SerializeNode(const Node& node, const SerializeOptions& options = {});

/// Appends nodes to a caller-owned buffer, as they would be serialized
/// inside an element whose namespace bindings are `in_scope`.
///
/// The generated-prefix counter (`nsN`) lives as long as the writer, so a
/// caller that writes the framing of a message as text and its nodes
/// through one NodeWriter gets exactly the bytes SerializeNode would give
/// for the whole message tree. Nodes written must outlive the writer.
class NodeWriter {
 public:
  /// A prefix -> URI binding; the strings must outlive the writer.
  struct Binding {
    std::string_view prefix;
    std::string_view uri;
  };

  /// `in_scope` lists the bindings around the insertion point, outermost
  /// first; the reserved `xml` prefix is always bound.
  NodeWriter(std::string* out, std::initializer_list<Binding> in_scope,
             bool indent = false);

  /// Appends `node` and its subtree.
  void Write(const Node& node) { Emit(node, 0); }

  /// Appends ` name="value"` for the attribute node `attr`, as the only
  /// attribute of an empty element whose start tag is being written,
  /// preceded by the namespace declaration it needs.
  void WriteAttribute(const Node& attr);

  std::string& out() { return *out_; }

 private:
  const std::string_view* LookupPrefix(std::string_view prefix) const;
  const std::string_view* LookupUri(std::string_view uri,
                                    bool allow_default) const;
  std::string_view PrefixFor(const QName& name, bool is_attribute,
                             size_t* decls);
  void AppendDeclarations(size_t first);
  void AppendName(std::string_view prefix, std::string_view local);
  void Indent(int depth);
  void Emit(const Node& node, int depth);

  std::string* out_;
  bool indent_;
  std::vector<Binding> scope_;
  /// Storage of generated prefixes, which scope_ views.
  std::deque<std::string> generated_;
  int gen_ = 1;
};

/// Appends `s` escaped as text content (&, <, >, CR).
void AppendEscapedText(std::string_view s, std::string* out);

/// Appends `s` escaped as an attribute value (&, <, ", and CR, LF and tab
/// as character references).
void AppendEscapedAttribute(std::string_view s, std::string* out);

}  // namespace xrpc::xml

#endif  // XRPC_XML_SERIALIZER_H_
