#include "xml/reader.h"

#include <cstdint>
#include <cstring>

#include "base/string_util.h"

namespace xrpc::xml {

namespace {

constexpr std::string_view kXmlNamespace =
    "http://www.w3.org/XML/1998/namespace";

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':' || static_cast<unsigned char>(c) >= 0x80;
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// Splits "prefix:local" at the first colon.
void SplitName(std::string_view raw, std::string_view* prefix,
               std::string_view* local) {
  size_t colon = raw.find(':');
  if (colon == std::string_view::npos) {
    *prefix = {};
    *local = raw;
  } else {
    *prefix = raw.substr(0, colon);
    *local = raw.substr(colon + 1);
  }
}

}  // namespace

std::string XmlReader::Name::Clark() const {
  std::string out;
  if (!uri.empty()) {
    out += '{';
    out += uri;
    out += '}';
  }
  out += local;
  return out;
}

XmlReader::XmlReader(std::string_view input, Mode mode)
    : in_(input), mode_(mode) {
  // Root namespace scope: the reserved xml prefix.
  bindings_.push_back({"xml", kXmlNamespace});
}

const XmlReader::Attribute* XmlReader::FindAttribute(
    std::string_view ns, std::string_view local) const {
  for (const Attribute& a : attrs_) {
    if (a.name.Is(ns, local)) return &a;
  }
  return nullptr;
}

Status XmlReader::Error(const std::string& msg) const {
  // Report 1-based line for diagnostics.
  int line = 1;
  for (size_t i = 0; i < pos_ && i < in_.size(); ++i) {
    if (in_[i] == '\n') ++line;
  }
  return Status::ParseError("XML parse error at line " + std::to_string(line) +
                            ": " + msg);
}

bool XmlReader::Consume(std::string_view s) {
  if (!Lookahead(s)) return false;
  pos_ += s.size();
  return true;
}

void XmlReader::SkipWs() {
  while (pos_ < in_.size() && IsXmlWhitespace(in_[pos_])) ++pos_;
}

// Skips whitespace, comments and PIs at the document level (discarded).
void XmlReader::SkipMisc() {
  while (true) {
    SkipWs();
    if (Lookahead("<!--")) {
      size_t end = in_.find("-->", pos_);
      if (end == std::string_view::npos) {
        pos_ = in_.size();
        return;
      }
      pos_ = end + 3;
    } else if (Lookahead("<?")) {
      size_t end = in_.find("?>", pos_);
      if (end == std::string_view::npos) {
        pos_ = in_.size();
        return;
      }
      pos_ = end + 2;
    } else {
      return;
    }
  }
}

Status XmlReader::ParseProlog() {
  Consume("\xEF\xBB\xBF");  // UTF-8 byte order mark
  SkipWs();
  if (Lookahead("<?xml")) {
    size_t end = in_.find("?>", pos_);
    if (end == std::string_view::npos) return Error("unterminated XML decl");
    pos_ = end + 2;
  }
  SkipMisc();
  if (Lookahead("<!DOCTYPE")) {
    // Skip to matching '>' honoring an optional internal subset [...].
    int depth = 0;
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '[') ++depth;
      if (c == ']') --depth;
      if (c == '>' && depth == 0) break;
    }
    SkipMisc();
  }
  return Status::OK();
}

Status XmlReader::ParseName(std::string_view* out) {
  if (Eof() || !IsNameStartChar(Peek())) return Error("expected a name");
  size_t start = pos_;
  while (!Eof() && IsNameChar(Peek())) ++pos_;
  *out = in_.substr(start, pos_ - start);
  return Status::OK();
}

Status XmlReader::ParseReference(std::string* out) {
  // pos_ is at '&'.
  size_t end = in_.find(';', pos_);
  if (end == std::string_view::npos || end - pos_ > 12) {
    return Error("malformed entity reference");
  }
  std::string_view name = in_.substr(pos_ + 1, end - pos_ - 1);
  pos_ = end + 1;
  if (name == "lt") {
    out->push_back('<');
  } else if (name == "gt") {
    out->push_back('>');
  } else if (name == "amp") {
    out->push_back('&');
  } else if (name == "quot") {
    out->push_back('"');
  } else if (name == "apos") {
    out->push_back('\'');
  } else if (!name.empty() && name[0] == '#') {
    uint32_t cp = 0;
    bool ok = name.size() > 1;
    if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
      for (size_t i = 2; i < name.size() && ok; ++i) {
        char c = name[i];
        uint32_t d;
        if (c >= '0' && c <= '9') {
          d = static_cast<uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          d = static_cast<uint32_t>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
          d = static_cast<uint32_t>(c - 'A' + 10);
        } else {
          ok = false;
          break;
        }
        cp = cp * 16 + d;
      }
    } else {
      for (size_t i = 1; i < name.size() && ok; ++i) {
        if (name[i] < '0' || name[i] > '9') {
          ok = false;
          break;
        }
        cp = cp * 10 + static_cast<uint32_t>(name[i] - '0');
      }
    }
    if (!ok || cp == 0 || cp > 0x10FFFF) {
      return Error("invalid character reference");
    }
    AppendUtf8(cp, out);
  } else {
    return Error("unknown entity &" + std::string(name) + ";");
  }
  return Status::OK();
}

std::string* XmlReader::TextBuffer() {
  if (!text_buffered_) {
    text_buf_.assign(text_);
    text_buffered_ = true;
  }
  return &text_buf_;
}

void XmlReader::AppendText(std::string_view piece) {
  if (piece.empty()) return;
  if (text_.empty()) {
    text_ = piece;  // the common case: one run, viewed in place
    return;
  }
  TextBuffer()->append(piece);
  text_ = text_buf_;
}

bool XmlReader::KeepText() const {
  if (text_.empty()) return false;
  if (!stack_.empty() || mode_ == Mode::kFragment) return true;
  for (char c : text_) {
    if (!IsXmlWhitespace(c)) return true;
  }
  return false;
}

Status XmlReader::ReadCharData() {
  // One run up to the next markup, scanned with memchr, with references
  // decoded into the text buffer as they come.
  const char* base = in_.data();
  while (pos_ < in_.size() && in_[pos_] != '<') {
    if (in_[pos_] == '&') {
      XRPC_RETURN_IF_ERROR(ParseReference(TextBuffer()));
      text_ = text_buf_;
      continue;
    }
    const char* from = base + pos_;
    const void* lt = std::memchr(from, '<', in_.size() - pos_);
    size_t stop = lt != nullptr ? static_cast<size_t>(
                                      static_cast<const char*>(lt) - base)
                                : in_.size();
    const void* amp = std::memchr(from, '&', stop - pos_);
    if (amp != nullptr) {
      stop = static_cast<size_t>(static_cast<const char*>(amp) - base);
    }
    AppendText(in_.substr(pos_, stop - pos_));
    pos_ = stop;
  }
  return Status::OK();
}

Status XmlReader::ParseAttributeValue(std::string_view* out) {
  char quote = Peek();
  if (quote != '"' && quote != '\'') {
    return Error("expected quoted attribute value");
  }
  ++pos_;
  const size_t start = pos_;
  std::string* decoded = nullptr;  // set once a reference is seen
  while (!Eof() && Peek() != quote) {
    char c = in_[pos_];
    if (c == '&') {
      if (decoded == nullptr) {
        decoded = &decoded_values_.emplace_back(in_.substr(start, pos_ - start));
      }
      XRPC_RETURN_IF_ERROR(ParseReference(decoded));
    } else if (c == '<') {
      return Error("'<' in attribute value");
    } else {
      if (decoded != nullptr) decoded->push_back(c);
      ++pos_;
    }
  }
  if (Eof()) return Error("unterminated attribute value");
  *out = decoded != nullptr ? std::string_view(*decoded)
                            : in_.substr(start, pos_ - start);
  ++pos_;  // closing quote
  return Status::OK();
}

StatusOr<std::string_view> XmlReader::Resolve(std::string_view prefix) const {
  // Empty prefix resolves to the default namespace (which may be "").
  for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
    if (it->prefix == prefix) return it->uri;
  }
  if (prefix.empty()) return std::string_view();
  return Status::ParseError("undeclared namespace prefix: " +
                            std::string(prefix));
}

StatusOr<XmlReader::Token> XmlReader::StartElement() {
  if (stack_.size() >= kMaxElementDepth) {
    return Error("elements nested deeper than " +
                 std::to_string(kMaxElementDepth) + " levels");
  }
  ++pos_;  // '<'
  std::string_view raw_name;
  XRPC_RETURN_IF_ERROR(ParseName(&raw_name));

  const size_t scope_mark = bindings_.size();
  raw_attrs_.clear();
  decoded_values_.clear();
  bool self_closing = false;
  while (true) {
    SkipWs();
    if (Consume("/>")) {
      self_closing = true;
      break;
    }
    if (Consume(">")) break;
    if (Eof()) return Error("unterminated start tag");
    if (Lookahead("/")) return Error("malformed empty-element tag");
    RawAttribute attr;
    XRPC_RETURN_IF_ERROR(ParseName(&attr.name));
    SkipWs();
    if (!Consume("=")) return Error("expected '=' in attribute");
    SkipWs();
    XRPC_RETURN_IF_ERROR(ParseAttributeValue(&attr.value));
    if (attr.name == "xmlns" || StartsWith(attr.name, "xmlns:")) {
      std::string_view uri = attr.value;
      if (!decoded_values_.empty() && uri.data() ==
                                          decoded_values_.back().data()) {
        uri = decoded_uris_.emplace_back(std::move(decoded_values_.back()));
        decoded_values_.pop_back();
      }
      bindings_.push_back(
          {attr.name.size() == 5 ? std::string_view() : attr.name.substr(6),
           uri});
    } else {
      raw_attrs_.push_back(attr);
    }
  }

  SplitName(raw_name, &name_.prefix, &name_.local);
  XRPC_ASSIGN_OR_RETURN(name_.uri, Resolve(name_.prefix));
  attrs_.clear();
  for (const RawAttribute& raw : raw_attrs_) {
    Attribute a;
    SplitName(raw.name, &a.name.prefix, &a.name.local);
    if (!a.name.prefix.empty()) {
      // Unprefixed attributes are in no namespace per XML Namespaces.
      XRPC_ASSIGN_OR_RETURN(a.name.uri, Resolve(a.name.prefix));
    }
    if (FindAttribute(a.name.uri, a.name.local) != nullptr) {
      return Error("duplicate attribute " + std::string(raw.name));
    }
    a.value = raw.value;
    attrs_.push_back(a);
  }

  stack_.push_back({raw_name, scope_mark, name_});
  saw_element_ = true;
  pending_end_ = self_closing;
  return Token::kStartElement;
}

XmlReader::Token XmlReader::EndElement() {
  name_ = stack_.back().name;
  bindings_.resize(stack_.back().scope_mark);
  stack_.pop_back();
  if (stack_.empty() && mode_ == Mode::kDocument) SkipMisc();
  return Token::kEndElement;
}

StatusOr<XmlReader::Token> XmlReader::Next() {
  if (pending_end_) {
    pending_end_ = false;
    return EndElement();
  }
  if (!started_) {
    started_ = true;
    if (mode_ == Mode::kDocument) XRPC_RETURN_IF_ERROR(ParseProlog());
  }
  text_ = {};
  text_buffered_ = false;
  // Pending character data is returned before the markup that ends it;
  // the markup is then read by the next call.
  while (true) {
    if (Eof()) {
      if (KeepText()) return Token::kText;
      if (!stack_.empty()) {
        return Error("expected end tag for " +
                     std::string(stack_.back().raw_name));
      }
      if (mode_ == Mode::kDocument && !saw_element_) {
        return Error("no document element");
      }
      return Token::kEnd;
    }
    if (in_[pos_] != '<') {
      if (stack_.empty() && mode_ == Mode::kDocument) {
        return Error("text content outside the document element");
      }
      XRPC_RETURN_IF_ERROR(ReadCharData());
      continue;
    }
    if (Lookahead("<![CDATA[")) {
      size_t end = in_.find("]]>", pos_ + 9);
      if (end == std::string_view::npos) return Error("unterminated CDATA");
      AppendText(in_.substr(pos_ + 9, end - pos_ - 9));
      pos_ = end + 3;
      continue;
    }
    if (KeepText()) return Token::kText;
    text_ = {};
    if (Lookahead("</")) {
      if (stack_.empty()) {
        return Error(mode_ == Mode::kDocument
                         ? "unexpected content after document element"
                         : "unexpected trailing content");
      }
      pos_ += 2;
      std::string_view end_name;
      XRPC_RETURN_IF_ERROR(ParseName(&end_name));
      SkipWs();
      if (!Consume(">")) return Error("malformed end tag");
      if (end_name != stack_.back().raw_name) {
        return Error("mismatched end tag </" + std::string(end_name) +
                     ">, expected </" + std::string(stack_.back().raw_name) +
                     ">");
      }
      return EndElement();
    }
    if (Lookahead("<!--")) {
      size_t end = in_.find("-->", pos_ + 4);
      if (end == std::string_view::npos) return Error("unterminated comment");
      text_ = in_.substr(pos_ + 4, end - pos_ - 4);
      pos_ = end + 3;
      return Token::kComment;
    }
    if (Lookahead("<?")) {
      pos_ += 2;
      XRPC_RETURN_IF_ERROR(ParseName(&target_));
      SkipWs();
      size_t end = in_.find("?>", pos_);
      if (end == std::string_view::npos) return Error("unterminated PI");
      text_ = in_.substr(pos_, end - pos_);
      pos_ = end + 2;
      return Token::kProcessingInstruction;
    }
    return StartElement();
  }
}

Status XmlReader::Skip() {
  const size_t depth = stack_.size();
  while (stack_.size() >= depth) {
    XRPC_ASSIGN_OR_RETURN(Token t, Next());
    if (t == Token::kEnd) break;
  }
  return Status::OK();
}

}  // namespace xrpc::xml
