#include "xml/serializer.h"

namespace xrpc::xml {

void AppendEscapedText(std::string_view s, std::string* out) {
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < s.size(); ++i) {
    const char* ref;
    switch (s[i]) {
      case '&':
        ref = "&amp;";
        break;
      case '<':
        ref = "&lt;";
        break;
      // '>' is escaped unconditionally, which also covers the "]]>"
      // sequence in character data (XML 1.0 §2.4 forbids a literal "]]>"
      // outside CDATA): it serializes as "]]&gt;".
      case '>':
        ref = "&gt;";
        break;
      // A literal CR in character data would be normalized away to LF by
      // any conforming parser on re-parse (XML 1.0 §2.11), silently
      // corrupting the value; only the character reference survives a
      // round trip.
      case '\r':
        ref = "&#13;";
        break;
      default:
        continue;
    }
    out->append(s.data() + run, i - run);
    out->append(ref);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

void AppendEscapedAttribute(std::string_view s, std::string* out) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char* ref;
    switch (s[i]) {
      case '&':
        ref = "&amp;";
        break;
      case '<':
        ref = "&lt;";
        break;
      case '"':
        ref = "&quot;";
        break;
      case '\n':
        ref = "&#10;";
        break;
      case '\t':
        ref = "&#9;";
        break;
      case '\r':
        ref = "&#13;";
        break;
      default:
        continue;
    }
    out->append(s.data() + run, i - run);
    out->append(ref);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

NodeWriter::NodeWriter(std::string* out, std::initializer_list<Binding> in_scope,
                       bool indent)
    : out_(out), indent_(indent) {
  scope_.reserve(in_scope.size() + 8);
  scope_.push_back({"xml", "http://www.w3.org/XML/1998/namespace"});
  scope_.insert(scope_.end(), in_scope.begin(), in_scope.end());
}

// Returns the URI currently bound to `prefix`, or nullptr.
const std::string_view* NodeWriter::LookupPrefix(
    std::string_view prefix) const {
  for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
    if (it->prefix == prefix) return &it->uri;
  }
  return nullptr;
}

// Returns a prefix currently bound to `uri`, or nullptr. For attributes,
// the empty (default) prefix is not usable.
const std::string_view* NodeWriter::LookupUri(std::string_view uri,
                                              bool allow_default) const {
  for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
    if (it->uri == uri && (allow_default || !it->prefix.empty())) {
      // The binding must not be shadowed by a later one for same prefix.
      if (LookupPrefix(it->prefix) == &it->uri) return &it->prefix;
    }
  }
  return nullptr;
}

// Decides the prefix to serialize `name` with, pushing any xmlns
// declaration needed onto `scope_` and counting it in `*decls`.
std::string_view NodeWriter::PrefixFor(const QName& name, bool is_attribute,
                                       size_t* decls) {
  if (name.ns_uri.empty()) {
    // No-namespace names must not pick up a default namespace binding.
    if (!is_attribute) {
      const std::string_view* bound = LookupPrefix("");
      if (bound != nullptr && !bound->empty()) {
        scope_.push_back({"", ""});
        ++*decls;
      }
    }
    return "";
  }
  if (const std::string_view* existing =
          LookupUri(name.ns_uri, !is_attribute)) {
    return *existing;
  }
  // Try the stored prefix; fall back to generated ones.
  std::string_view prefix = name.prefix;
  auto generate = [&] {
    return std::string_view(
        generated_.emplace_back("ns" + std::to_string(gen_++)));
  };
  if (prefix.empty() && is_attribute) prefix = generate();
  while (true) {
    const std::string_view* bound = LookupPrefix(prefix);
    if (bound == nullptr || *bound == name.ns_uri) break;
    prefix = generate();
  }
  scope_.push_back({prefix, name.ns_uri});
  ++*decls;
  return prefix;
}

void NodeWriter::AppendDeclarations(size_t first) {
  for (size_t i = first; i < scope_.size(); ++i) {
    if (scope_[i].prefix.empty()) {
      out_->append(" xmlns=\"");
    } else {
      out_->append(" xmlns:");
      out_->append(scope_[i].prefix);
      out_->append("=\"");
    }
    AppendEscapedAttribute(scope_[i].uri, out_);
    out_->push_back('"');
  }
}

void NodeWriter::AppendName(std::string_view prefix, std::string_view local) {
  if (!prefix.empty()) {
    out_->append(prefix);
    out_->push_back(':');
  }
  out_->append(local);
}

void NodeWriter::WriteAttribute(const Node& attr) {
  const size_t scope_mark = scope_.size();
  size_t decls = 0;
  std::string_view prefix = PrefixFor(attr.name(), true, &decls);
  AppendDeclarations(scope_mark);
  out_->push_back(' ');
  AppendName(prefix, attr.name().local);
  out_->append("=\"");
  AppendEscapedAttribute(attr.value(), out_);
  out_->push_back('"');
  scope_.resize(scope_mark);
}

void NodeWriter::Indent(int depth) {
  if (!indent_) return;
  if (!out_->empty() && out_->back() != '\n') out_->push_back('\n');
  out_->append(static_cast<size_t>(depth) * 2, ' ');
}

void NodeWriter::Emit(const Node& node, int depth) {
  switch (node.kind()) {
    case NodeKind::kDocument:
      for (const NodePtr& c : node.children()) Emit(*c, depth);
      return;
    case NodeKind::kText:
      AppendEscapedText(node.value(), out_);
      return;
    case NodeKind::kComment:
      Indent(depth);
      out_->append("<!--");
      out_->append(node.value());
      out_->append("-->");
      return;
    case NodeKind::kProcessingInstruction:
      Indent(depth);
      out_->append("<?");
      out_->append(node.name().local);
      if (!node.value().empty()) {
        out_->push_back(' ');
        out_->append(node.value());
      }
      out_->append("?>");
      return;
    case NodeKind::kAttribute:
      // A detached attribute serialized on its own (the paper serializes
      // attribute parameters as <xrpc:attribute x="y"/> wrappers at the
      // SOAP layer; direct serialization renders name="value").
      out_->append(node.name().Lexical());
      out_->append("=\"");
      AppendEscapedAttribute(node.value(), out_);
      out_->push_back('"');
      return;
    case NodeKind::kElement:
      break;
  }

  const size_t scope_mark = scope_.size();
  size_t decls = 0;
  std::string_view eprefix = PrefixFor(node.name(), false, &decls);
  // Attribute prefixes are settled before the tag is written, because the
  // declarations they need come first in it. A declaration never shadows a
  // binding in use, so the second lookup below finds the same prefix.
  for (const NodePtr& a : node.attributes()) PrefixFor(a->name(), true, &decls);

  Indent(depth);
  out_->push_back('<');
  AppendName(eprefix, node.name().local);
  AppendDeclarations(scope_mark);
  for (const NodePtr& a : node.attributes()) {
    out_->push_back(' ');
    if (!a->name().ns_uri.empty()) {
      AppendName(*LookupUri(a->name().ns_uri, false), a->name().local);
    } else {
      out_->append(a->name().local);
    }
    out_->append("=\"");
    AppendEscapedAttribute(a->value(), out_);
    out_->push_back('"');
  }

  if (node.children().empty()) {
    out_->append("/>");
  } else {
    out_->push_back('>');
    bool structural = true;
    for (const NodePtr& c : node.children()) {
      if (c->kind() == NodeKind::kText) structural = false;
    }
    for (const NodePtr& c : node.children()) {
      Emit(*c, structural ? depth + 1 : depth);
    }
    if (indent_ && structural) Indent(depth);
    out_->append("</");
    AppendName(eprefix, node.name().local);
    out_->push_back('>');
  }
  scope_.resize(scope_mark);
}

std::string SerializeNode(const Node& node, const SerializeOptions& options) {
  std::string out;
  if (node.kind() == NodeKind::kDocument && options.xml_declaration) {
    out = "<?xml version=\"1.0\" encoding=\"utf-8\"?>";
    if (options.indent) out += "\n";
  }
  NodeWriter writer(&out, {}, options.indent);
  writer.Write(node);
  return out;
}

}  // namespace xrpc::xml
