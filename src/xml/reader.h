#ifndef XRPC_XML_READER_H_
#define XRPC_XML_READER_H_

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "xml/qname.h"

namespace xrpc::xml {

/// Most elements an XML input may nest; deeper input is a ParseError. The
/// reader keeps its element stack on the heap, but the consumers of a built
/// tree still recurse once per level: the serializer, Node::Clone, ~Node
/// and the shredder. DESIGN.md §18 measures their frames: the largest, the
/// shredder's, is 2.6 KB a level under ASan, so 512 levels take 1.3 MB,
/// a sixth of an 8 MB stack. libxml2's default limit is 256.
inline constexpr size_t kMaxElementDepth = 512;

/// Pull tokenizer for non-validating, namespace-aware XML 1.0.
///
/// Each Next() returns one event. Character data between two pieces of
/// markup (text, references and CDATA sections) is one kText event; a
/// self-closing tag is a kStartElement followed by a kEndElement. Names,
/// attribute values and text are views that stay valid until the next
/// call to Next(); views into the input stay valid as long as the input.
///
/// The element stack is explicit, so nesting depth costs heap, not native
/// stack, and is capped at kMaxElementDepth. After an error the reader must
/// not be used further.
class XmlReader {
 public:
  enum class Token {
    kStartElement,
    kEndElement,
    kText,
    kComment,
    kProcessingInstruction,
    kEnd,  ///< input exhausted; repeated by every later call
  };

  /// kDocument: a prolog, exactly the misc/element structure of a document,
  /// no text outside the document element. kFragment: any sequence of
  /// elements, text, comments and PIs.
  enum class Mode { kDocument, kFragment };

  /// An element or attribute name resolved against the in-scope bindings.
  struct Name {
    std::string_view prefix;
    std::string_view local;
    std::string_view uri;  ///< refers into the namespace scope stack

    bool Is(std::string_view ns, std::string_view local_part) const {
      return local == local_part && uri == ns;
    }
    QName ToQName() const {
      return QName(std::string(uri), std::string(local), std::string(prefix));
    }
    /// Clark notation "{uri}local", for diagnostics.
    std::string Clark() const;
  };

  struct Attribute {
    Name name;
    std::string_view value;  ///< references already decoded
  };

  XmlReader(std::string_view input, Mode mode);

  StatusOr<Token> Next();

  /// The element of the current kStartElement or kEndElement event.
  const Name& name() const { return name_; }
  /// The attributes of the current kStartElement event, in document order;
  /// namespace declarations are not among them.
  const std::vector<Attribute>& attributes() const { return attrs_; }
  /// First attribute named {ns}local, or nullptr.
  const Attribute* FindAttribute(std::string_view ns,
                                 std::string_view local) const;
  /// Character data of kText, kComment or kProcessingInstruction.
  std::string_view text() const { return text_; }
  /// Target of the current kProcessingInstruction.
  std::string_view target() const { return target_; }
  /// Elements open, counting one whose start tag was just returned.
  size_t depth() const { return stack_.size(); }

  /// After a kStartElement, consumes events through its end tag.
  Status Skip();

  /// A ParseError naming the current line.
  Status Error(const std::string& msg) const;

 private:
  struct Binding {
    std::string_view prefix;
    std::string_view uri;
  };
  struct Frame {
    std::string_view raw_name;
    size_t scope_mark;  ///< bindings_ size before this element's own
    Name name;
  };
  struct RawAttribute {
    std::string_view name;
    std::string_view value;
  };

  bool Eof() const { return pos_ >= in_.size(); }
  char Peek() const { return pos_ < in_.size() ? in_[pos_] : '\0'; }
  bool Lookahead(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  bool Consume(std::string_view s);
  void SkipWs();
  void SkipMisc();
  Status ParseProlog();
  Status ParseName(std::string_view* out);
  Status ParseReference(std::string* out);
  Status ParseAttributeValue(std::string_view* out);
  Status ReadCharData();
  StatusOr<Token> StartElement();
  Token EndElement();
  StatusOr<std::string_view> Resolve(std::string_view prefix) const;

  void AppendText(std::string_view piece);
  std::string* TextBuffer();
  /// Whether pending character data is returned as a kText event;
  /// whitespace outside the document element is not data.
  bool KeepText() const;

  std::string_view in_;
  size_t pos_ = 0;
  Mode mode_;
  bool started_ = false;
  bool pending_end_ = false;  ///< a self-closing tag owes its end event
  bool saw_element_ = false;

  std::vector<Frame> stack_;
  std::vector<Binding> bindings_;
  /// Namespace URIs that held references; they outlive their scope.
  std::deque<std::string> decoded_uris_;

  Name name_;
  std::vector<RawAttribute> raw_attrs_;
  std::vector<Attribute> attrs_;
  /// Attribute values that held references, for the current start tag.
  std::deque<std::string> decoded_values_;

  std::string_view text_;
  std::string text_buf_;
  bool text_buffered_ = false;  ///< text_ views text_buf_
  std::string_view target_;
};

}  // namespace xrpc::xml

#endif  // XRPC_XML_READER_H_
