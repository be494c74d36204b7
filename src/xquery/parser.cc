#include "xquery/parser.h"

#include <cassert>
#include <cctype>
#include <vector>

#include "base/string_util.h"

namespace xrpc::xquery {

namespace {

bool IsNcNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         static_cast<unsigned char>(c) >= 0x80;
}

bool IsNcNameChar(char c) {
  return IsNcNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Hand-written recursive descent parser for the XQuery subset.
///
/// The parser works directly on the source text (no separate token stream)
/// because XQuery lexing is mode-dependent: inside direct element
/// constructors the input is XML, not expression tokens.
class Parser {
 public:
  explicit Parser(std::string_view src) : src_(src) {
    // Statically known prefixes (XQuery 1.0 4.12).
    ns_.emplace_back("xml", "http://www.w3.org/XML/1998/namespace");
    ns_.emplace_back("xs", xml::kXsNs);
    ns_.emplace_back("xsi", xml::kXsiNs);
    ns_.emplace_back("fn", kFnNs);
    ns_.emplace_back("local", kLocalNs);
    ns_.emplace_back("xrpc", xml::kXrpcNs);
  }

  StatusOr<MainModule> ParseMain() {
    MainModule mod;
    XRPC_RETURN_IF_ERROR(ParseVersionDecl());
    XRPC_RETURN_IF_ERROR(ParseProlog(&mod.prolog));
    XRPC_ASSIGN_OR_RETURN(mod.body, ParseExpr());
    SkipWs();
    if (!Eof()) return Error("unexpected trailing content");
    return mod;
  }

  StatusOr<LibraryModule> ParseLibrary() {
    LibraryModule mod;
    XRPC_RETURN_IF_ERROR(ParseVersionDecl());
    if (!ConsumeWord("module")) return Error("expected 'module'");
    if (!ConsumeWord("namespace")) return Error("expected 'namespace'");
    XRPC_ASSIGN_OR_RETURN(mod.prefix, ParseNCName());
    if (!ConsumeSym("=")) return Error("expected '='");
    XRPC_ASSIGN_OR_RETURN(mod.target_ns, ParseStringLiteral());
    if (!ConsumeSym(";")) return Error("expected ';'");
    ns_.emplace_back(mod.prefix, mod.target_ns);
    module_target_ns_ = mod.target_ns;
    XRPC_RETURN_IF_ERROR(ParseProlog(&mod.prolog));
    SkipWs();
    if (!Eof()) return Error("unexpected content after library module prolog");
    return mod;
  }

 private:
  // ---------------------------------------------------------------- lexing

  bool Eof() const { return pos_ >= src_.size(); }
  char Peek(size_t k = 0) const {
    return pos_ + k < src_.size() ? src_[pos_ + k] : '\0';
  }

  Status Error(const std::string& msg) const {
    int line = 1;
    for (size_t i = 0; i < pos_ && i < src_.size(); ++i) {
      if (src_[i] == '\n') ++line;
    }
    // An unterminated (: comment :) swallows everything to EOF during
    // whitespace skipping; whatever error the grammar then hits, the
    // comment is the actual problem — report it instead.
    const std::string& shown =
        (Eof() && unterminated_comment_line_ > 0) ? "unterminated comment"
                                                  : msg;
    const int shown_line = (Eof() && unterminated_comment_line_ > 0)
                               ? unterminated_comment_line_
                               : line;
    return Status::ParseError("XQuery parse error at line " +
                              std::to_string(shown_line) + ": " + shown);
  }

  // Skips whitespace and (nested) XQuery comments.
  void SkipWs() {
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (IsXmlWhitespace(c)) {
        ++pos_;
      } else if (c == '(' && Peek(1) == ':') {
        const size_t comment_start = pos_;
        int depth = 0;
        while (pos_ < src_.size()) {
          if (Peek() == '(' && Peek(1) == ':') {
            depth++;
            pos_ += 2;
          } else if (Peek() == ':' && Peek(1) == ')') {
            depth--;
            pos_ += 2;
            if (depth == 0) break;
          } else {
            ++pos_;
          }
        }
        if (depth != 0 && unterminated_comment_line_ == 0) {
          int line = 1;
          for (size_t i = 0; i < comment_start; ++i) {
            if (src_[i] == '\n') ++line;
          }
          unterminated_comment_line_ = line;
        }
      } else {
        return;
      }
    }
  }

  // After whitespace, true if `s` is next. Symbolic (non-word) tokens only.
  bool LookSym(std::string_view s) {
    SkipWs();
    return src_.substr(pos_, s.size()) == s;
  }

  bool ConsumeSym(std::string_view s) {
    if (!LookSym(s)) return false;
    pos_ += s.size();
    return true;
  }

  // Word token: matched only at word boundaries.
  bool LookWord(std::string_view w) {
    SkipWs();
    if (src_.substr(pos_, w.size()) != w) return false;
    char next = pos_ + w.size() < src_.size() ? src_[pos_ + w.size()] : '\0';
    return !IsNcNameChar(next);
  }

  bool ConsumeWord(std::string_view w) {
    if (!LookWord(w)) return false;
    pos_ += w.size();
    return true;
  }

  // Two consecutive words ("execute at", "instance of"...).
  bool LookWords(std::string_view w1, std::string_view w2) {
    size_t save = pos_;
    if (!ConsumeWord(w1)) return false;
    bool ok = LookWord(w2);
    pos_ = save;
    return ok;
  }

  // A word followed by a symbolic token ("if (", "text {").
  bool WordThenSym(std::string_view w, std::string_view s) {
    size_t save = pos_;
    if (!ConsumeWord(w)) return false;
    bool ok = LookSym(s);
    pos_ = save;
    return ok;
  }

  // Detects a computed constructor: keyword followed by "{" or by a QName
  // and then "{" (e.g. `element {$n} {...}` or `element foo {...}`).
  bool IsComputedCtor(std::string_view keyword) {
    size_t save = pos_;
    bool ok = false;
    if (ConsumeWord(keyword)) {
      if (LookSym("{")) {
        ok = true;
      } else {
        auto pq = ParseLexicalQName();
        ok = pq.ok() && LookSym("{");
      }
    }
    pos_ = save;
    return ok;
  }

  StatusOr<std::string> ParseNCName() {
    SkipWs();
    if (Eof() || !IsNcNameStart(Peek())) return Error("expected a name");
    size_t start = pos_;
    while (!Eof() && IsNcNameChar(Peek())) ++pos_;
    return std::string(src_.substr(start, pos_ - start));
  }

  // Lexical QName: NCName (":" NCName)?.
  StatusOr<std::pair<std::string, std::string>> ParseLexicalQName() {
    XRPC_ASSIGN_OR_RETURN(std::string first, ParseNCName());
    if (Peek() == ':' && IsNcNameStart(Peek(1))) {
      ++pos_;
      size_t start = pos_;
      while (!Eof() && IsNcNameChar(Peek())) ++pos_;
      return std::pair<std::string, std::string>(
          first, std::string(src_.substr(start, pos_ - start)));
    }
    return std::pair<std::string, std::string>("", first);
  }

  StatusOr<std::string> ResolvePrefix(const std::string& prefix) const {
    for (auto it = ns_.rbegin(); it != ns_.rend(); ++it) {
      if (it->first == prefix) return it->second;
    }
    if (prefix.empty()) return std::string();
    return Status::ParseError("undeclared namespace prefix: " + prefix);
  }

  // Resolves an element-context QName (default element namespace applies;
  // we keep the default element namespace empty, matching the examples).
  StatusOr<xml::QName> ParseQName() {
    XRPC_ASSIGN_OR_RETURN(auto pq, ParseLexicalQName());
    XRPC_ASSIGN_OR_RETURN(std::string uri, ResolvePrefix(pq.first));
    return xml::QName(uri, pq.second, pq.first);
  }

  // Function-context QName: unprefixed names fall in the fn namespace.
  StatusOr<xml::QName> ParseFunctionQName() {
    XRPC_ASSIGN_OR_RETURN(auto pq, ParseLexicalQName());
    if (pq.first.empty()) return xml::QName(kFnNs, pq.second, "fn");
    XRPC_ASSIGN_OR_RETURN(std::string uri, ResolvePrefix(pq.first));
    return xml::QName(uri, pq.second, pq.first);
  }

  StatusOr<xml::QName> ParseVarName() {
    SkipWs();
    if (!ConsumeSym("$")) return Error("expected '$'");
    XRPC_ASSIGN_OR_RETURN(auto pq, ParseLexicalQName());
    XRPC_ASSIGN_OR_RETURN(std::string uri, ResolvePrefix(pq.first));
    return xml::QName(uri, pq.second, pq.first);
  }

  StatusOr<std::string> ParseStringLiteral() {
    SkipWs();
    char quote = Peek();
    if (quote != '"' && quote != '\'') return Error("expected string literal");
    ++pos_;
    std::string out;
    while (!Eof()) {
      char c = src_[pos_];
      if (c == quote) {
        if (Peek(1) == quote) {  // doubled quote escape
          out.push_back(quote);
          pos_ += 2;
          continue;
        }
        ++pos_;
        return out;
      }
      if (c == '&') {
        XRPC_RETURN_IF_ERROR(ParseEntityRef(&out));
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    return Error("unterminated string literal");
  }

  Status ParseEntityRef(std::string* out) {
    size_t end = src_.find(';', pos_);
    if (end == std::string_view::npos || end - pos_ > 10) {
      return Error("malformed entity reference");
    }
    std::string_view name = src_.substr(pos_ + 1, end - pos_ - 1);
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
      int cp = 0;
      if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
        for (size_t i = 2; i < name.size(); ++i) {
          char c = name[i];
          cp = cp * 16 +
               (IsDigit(c) ? c - '0' : (std::tolower(c) - 'a' + 10));
        }
      } else {
        for (size_t i = 1; i < name.size(); ++i) cp = cp * 10 + (name[i] - '0');
      }
      out->push_back(static_cast<char>(cp));  // ASCII subset is sufficient
    } else {
      return Error("unknown entity reference &" + std::string(name) + ";");
    }
    return Status::OK();
  }

  // ---------------------------------------------------------------- prolog

  Status ParseVersionDecl() {
    size_t save = pos_;
    if (ConsumeWord("xquery")) {
      if (ConsumeWord("version")) {
        XRPC_ASSIGN_OR_RETURN(std::string v, ParseStringLiteral());
        (void)v;
        if (ConsumeWord("encoding")) {
          XRPC_RETURN_IF_ERROR(ParseStringLiteral().status());
        }
        if (!ConsumeSym(";")) return Error("expected ';' after version decl");
        return Status::OK();
      }
      pos_ = save;
    }
    return Status::OK();
  }

  Status ParseProlog(Prolog* prolog) {
    while (true) {
      SkipWs();
      size_t save = pos_;
      if (ConsumeWord("declare")) {
        if (ConsumeWord("namespace")) {
          XRPC_ASSIGN_OR_RETURN(std::string prefix, ParseNCName());
          if (!ConsumeSym("=")) return Error("expected '='");
          XRPC_ASSIGN_OR_RETURN(std::string uri, ParseStringLiteral());
          if (!ConsumeSym(";")) return Error("expected ';'");
          ns_.emplace_back(prefix, uri);
          prolog->namespaces.emplace_back(prefix, uri);
          continue;
        }
        if (ConsumeWord("option")) {
          XRPC_ASSIGN_OR_RETURN(xml::QName name, ParseQName());
          XRPC_ASSIGN_OR_RETURN(std::string value, ParseStringLiteral());
          if (!ConsumeSym(";")) return Error("expected ';'");
          prolog->options[name.Clark()] = value;
          continue;
        }
        if (ConsumeWord("variable")) {
          XRPC_ASSIGN_OR_RETURN(xml::QName name, ParseVarName());
          if (ConsumeWord("as")) {
            XRPC_RETURN_IF_ERROR(ParseSequenceType().status());
          }
          if (!ConsumeSym(":=")) return Error("expected ':='");
          XRPC_ASSIGN_OR_RETURN(ExprPtr init, ParseExprSingle());
          if (!ConsumeSym(";")) return Error("expected ';'");
          prolog->variables.emplace_back(std::move(name), std::move(init));
          continue;
        }
        bool updating = false;
        size_t fn_save = pos_;
        if (ConsumeWord("updating")) {
          if (!LookWord("function")) {
            pos_ = fn_save;
          } else {
            updating = true;
          }
        }
        if (ConsumeWord("function")) {
          FunctionDef def;
          def.updating = updating;
          XRPC_RETURN_IF_ERROR(ParseFunctionDecl(&def));
          if (!ConsumeSym(";")) return Error("expected ';' after function");
          prolog->functions.push_back(std::move(def));
          continue;
        }
        // Unknown declare (boundary-space, base-uri, ...): skip to ';'.
        size_t semi = src_.find(';', pos_);
        if (semi == std::string_view::npos) {
          return Error("unterminated declaration");
        }
        pos_ = semi + 1;
        continue;
      }
      pos_ = save;
      if (ConsumeWord("import")) {
        if (!ConsumeWord("module")) return Error("expected 'module'");
        ModuleImport imp;
        if (ConsumeWord("namespace")) {
          XRPC_ASSIGN_OR_RETURN(imp.prefix, ParseNCName());
          if (!ConsumeSym("=")) return Error("expected '='");
        }
        XRPC_ASSIGN_OR_RETURN(imp.target_ns, ParseStringLiteral());
        if (ConsumeWord("at")) {
          XRPC_ASSIGN_OR_RETURN(imp.location, ParseStringLiteral());
          // Extra at-hints are accepted and ignored.
          while (ConsumeSym(",")) {
            XRPC_RETURN_IF_ERROR(ParseStringLiteral().status());
          }
        }
        if (!ConsumeSym(";")) return Error("expected ';'");
        if (!imp.prefix.empty()) ns_.emplace_back(imp.prefix, imp.target_ns);
        prolog->imports.push_back(std::move(imp));
        continue;
      }
      pos_ = save;
      return Status::OK();
    }
  }

  Status ParseFunctionDecl(FunctionDef* def) {
    XRPC_ASSIGN_OR_RETURN(auto pq, ParseLexicalQName());
    std::string uri;
    if (pq.first.empty()) {
      uri = module_target_ns_.empty() ? kLocalNs : module_target_ns_;
    } else {
      XRPC_ASSIGN_OR_RETURN(uri, ResolvePrefix(pq.first));
    }
    def->name = xml::QName(uri, pq.second, pq.first);
    if (!ConsumeSym("(")) return Error("expected '(' in function decl");
    if (!LookSym(")")) {
      do {
        Param p;
        XRPC_ASSIGN_OR_RETURN(p.name, ParseVarName());
        if (ConsumeWord("as")) {
          XRPC_ASSIGN_OR_RETURN(p.type, ParseSequenceType());
        }
        def->params.push_back(std::move(p));
      } while (ConsumeSym(","));
    }
    if (!ConsumeSym(")")) return Error("expected ')' in function decl");
    if (ConsumeWord("as")) {
      XRPC_ASSIGN_OR_RETURN(def->return_type, ParseSequenceType());
    }
    if (ConsumeWord("external")) {
      return Error("external functions are not supported");
    }
    if (!ConsumeSym("{")) return Error("expected '{' (function body)");
    XRPC_ASSIGN_OR_RETURN(def->body, ParseExpr());
    if (!ConsumeSym("}")) return Error("expected '}' (function body)");
    return Status::OK();
  }

  StatusOr<SequenceType> ParseSequenceType() {
    SequenceType st;
    SkipWs();
    if (ConsumeWord("empty-sequence")) {
      if (!ConsumeSym("(") || !ConsumeSym(")")) return Error("expected '()'");
      st.kind = SequenceType::ItemKind::kEmpty;
      st.occurrence = Occurrence::kZeroOrMore;
      return st;
    }
    if (ConsumeWord("item")) {
      if (!ConsumeSym("(") || !ConsumeSym(")")) return Error("expected '()'");
      st.kind = SequenceType::ItemKind::kItem;
    } else if (ConsumeWord("node")) {
      if (!ConsumeSym("(") || !ConsumeSym(")")) return Error("expected '()'");
      st.kind = SequenceType::ItemKind::kNode;
    } else if (ConsumeWord("element")) {
      if (!ConsumeSym("(")) return Error("expected '('");
      // Optional name/type arguments are accepted and ignored.
      while (!LookSym(")") && !Eof()) ++pos_;
      if (!ConsumeSym(")")) return Error("expected ')'");
      st.kind = SequenceType::ItemKind::kElement;
    } else if (ConsumeWord("attribute")) {
      if (!ConsumeSym("(")) return Error("expected '('");
      while (!LookSym(")") && !Eof()) ++pos_;
      if (!ConsumeSym(")")) return Error("expected ')'");
      st.kind = SequenceType::ItemKind::kAttribute;
    } else if (ConsumeWord("document-node")) {
      if (!ConsumeSym("(")) return Error("expected '('");
      while (!LookSym(")") && !Eof()) ++pos_;
      if (!ConsumeSym(")")) return Error("expected ')'");
      st.kind = SequenceType::ItemKind::kDocument;
    } else if (ConsumeWord("text")) {
      if (!ConsumeSym("(") || !ConsumeSym(")")) return Error("expected '()'");
      st.kind = SequenceType::ItemKind::kText;
    } else {
      XRPC_ASSIGN_OR_RETURN(auto pq, ParseLexicalQName());
      std::string lexical =
          pq.first.empty() ? pq.second : pq.first + ":" + pq.second;
      XRPC_ASSIGN_OR_RETURN(st.atomic, xdm::AtomicTypeFromName(lexical));
      st.kind = SequenceType::ItemKind::kAtomic;
    }
    // Occurrence indicator (must follow immediately or after ws).
    SkipWs();
    if (ConsumeSym("?")) {
      st.occurrence = Occurrence::kZeroOrOne;
    } else if (ConsumeSym("*")) {
      st.occurrence = Occurrence::kZeroOrMore;
    } else if (ConsumeSym("+")) {
      st.occurrence = Occurrence::kOneOrMore;
    } else {
      st.occurrence = Occurrence::kOne;
    }
    return st;
  }

  // ----------------------------------------------------------- expressions

  StatusOr<ExprPtr> ParseExpr() {
    XRPC_ASSIGN_OR_RETURN(ExprPtr first, ParseExprSingle());
    if (!LookSym(",")) return first;
    ExprPtr seq = MakeExpr(ExprKind::kSequence);
    seq->children.push_back(std::move(first));
    while (ConsumeSym(",")) {
      XRPC_ASSIGN_OR_RETURN(ExprPtr next, ParseExprSingle());
      seq->children.push_back(std::move(next));
    }
    return seq;
  }

  StatusOr<ExprPtr> ParseExprSingle() {
    NestingScope nesting(&depth_);
    if (depth_ > kMaxNestingDepth) return Error("expression nested too deeply");
    SkipWs();
    if (AfterWordIsDollar("for")) return ParseFlwor();
    if (AfterWordIsDollar("let")) return ParseFlwor();
    if (AfterWordIsDollar("some")) return ParseQuantified(false);
    if (AfterWordIsDollar("every")) return ParseQuantified(true);
    if (WordThenSym("if", "(")) return ParseIf();
    if (LookWords("execute", "at")) return ParseExecuteAt();
    if (LookWords("insert", "nodes") || LookWords("insert", "node"))
      return ParseInsert();
    if (LookWords("delete", "nodes") || LookWords("delete", "node"))
      return ParseDelete();
    if (LookWords("replace", "value") || LookWords("replace", "node"))
      return ParseReplace();
    if (LookWords("rename", "node")) return ParseRename();
    return ParseOrExpr();
  }

  // Distinguishes the keyword use ("for $x ...") from a path step named
  // "for" etc.: the keyword must be followed by '$' or '('.
  bool AfterWordIsDollar(std::string_view w) {
    size_t save = pos_;
    bool ok = false;
    if (ConsumeWord(w)) {
      SkipWs();
      ok = Peek() == '$';
    }
    pos_ = save;
    return ok;
  }

  StatusOr<ExprPtr> ParseFlwor() {
    ExprPtr e = MakeExpr(ExprKind::kFlwor);
    while (true) {
      if (AfterWordIsDollar("for")) {
        ConsumeWord("for");
        do {
          FlworClause c;
          c.kind = FlworClause::Kind::kFor;
          XRPC_ASSIGN_OR_RETURN(c.var, ParseVarName());
          if (ConsumeWord("as")) {
            XRPC_RETURN_IF_ERROR(ParseSequenceType().status());
          }
          if (ConsumeWord("at")) {
            XRPC_ASSIGN_OR_RETURN(c.pos_var, ParseVarName());
          }
          if (!ConsumeWord("in")) return Error("expected 'in'");
          XRPC_ASSIGN_OR_RETURN(c.expr, ParseExprSingle());
          e->clauses.push_back(std::move(c));
        } while (ConsumeSym(","));
        continue;
      }
      if (AfterWordIsDollar("let")) {
        ConsumeWord("let");
        do {
          FlworClause c;
          c.kind = FlworClause::Kind::kLet;
          XRPC_ASSIGN_OR_RETURN(c.var, ParseVarName());
          if (ConsumeWord("as")) {
            XRPC_RETURN_IF_ERROR(ParseSequenceType().status());
          }
          if (!ConsumeSym(":=")) return Error("expected ':='");
          XRPC_ASSIGN_OR_RETURN(c.expr, ParseExprSingle());
          e->clauses.push_back(std::move(c));
        } while (ConsumeSym(","));
        continue;
      }
      break;
    }
    if (e->clauses.empty()) return Error("expected for/let clause");
    if (ConsumeWord("where")) {
      XRPC_ASSIGN_OR_RETURN(e->where, ParseExprSingle());
    }
    if (LookWords("stable", "order")) {
      ConsumeWord("stable");
      e->order_stable = true;
    }
    if (ConsumeWord("order")) {
      if (!ConsumeWord("by")) return Error("expected 'by'");
      do {
        OrderSpec spec;
        XRPC_ASSIGN_OR_RETURN(spec.key, ParseExprSingle());
        if (ConsumeWord("ascending")) {
        } else if (ConsumeWord("descending")) {
          spec.descending = true;
        }
        if (ConsumeWord("empty")) {
          if (ConsumeWord("greatest")) {
            spec.empty_greatest = true;
          } else if (!ConsumeWord("least")) {
            return Error("expected 'greatest' or 'least'");
          }
        }
        e->order_by.push_back(std::move(spec));
      } while (ConsumeSym(","));
    }
    if (!ConsumeWord("return")) return Error("expected 'return'");
    XRPC_ASSIGN_OR_RETURN(e->ret, ParseExprSingle());
    return e;
  }

  StatusOr<ExprPtr> ParseQuantified(bool every) {
    ConsumeWord(every ? "every" : "some");
    ExprPtr e = MakeExpr(ExprKind::kQuantified);
    e->every = every;
    do {
      FlworClause c;
      c.kind = FlworClause::Kind::kFor;
      XRPC_ASSIGN_OR_RETURN(c.var, ParseVarName());
      if (ConsumeWord("as")) {
        XRPC_RETURN_IF_ERROR(ParseSequenceType().status());
      }
      if (!ConsumeWord("in")) return Error("expected 'in'");
      XRPC_ASSIGN_OR_RETURN(c.expr, ParseExprSingle());
      e->clauses.push_back(std::move(c));
    } while (ConsumeSym(","));
    if (!ConsumeWord("satisfies")) return Error("expected 'satisfies'");
    XRPC_ASSIGN_OR_RETURN(e->ret, ParseExprSingle());
    return e;
  }

  StatusOr<ExprPtr> ParseIf() {
    ConsumeWord("if");
    if (!ConsumeSym("(")) return Error("expected '('");
    XRPC_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
    if (!ConsumeSym(")")) return Error("expected ')'");
    if (!ConsumeWord("then")) return Error("expected 'then'");
    XRPC_ASSIGN_OR_RETURN(ExprPtr then_e, ParseExprSingle());
    if (!ConsumeWord("else")) return Error("expected 'else'");
    XRPC_ASSIGN_OR_RETURN(ExprPtr else_e, ParseExprSingle());
    ExprPtr e = MakeExpr(ExprKind::kIf);
    e->children.push_back(std::move(cond));
    e->children.push_back(std::move(then_e));
    e->children.push_back(std::move(else_e));
    return e;
  }

  // execute at { Expr } { FunctionCall }
  StatusOr<ExprPtr> ParseExecuteAt() {
    ConsumeWord("execute");
    ConsumeWord("at");
    if (!ConsumeSym("{")) return Error("expected '{' after 'execute at'");
    XRPC_ASSIGN_OR_RETURN(ExprPtr dest, ParseExpr());
    if (!ConsumeSym("}")) return Error("expected '}' after destination");
    if (!ConsumeSym("{")) return Error("expected '{' (remote call)");
    XRPC_ASSIGN_OR_RETURN(xml::QName fname, ParseFunctionQName());
    if (!ConsumeSym("(")) return Error("expected '(' in remote call");
    ExprPtr e = MakeExpr(ExprKind::kExecuteAt);
    e->name = std::move(fname);
    e->children.push_back(std::move(dest));
    if (!LookSym(")")) {
      do {
        XRPC_ASSIGN_OR_RETURN(ExprPtr arg, ParseExprSingle());
        e->children.push_back(std::move(arg));
      } while (ConsumeSym(","));
    }
    if (!ConsumeSym(")")) return Error("expected ')' in remote call");
    if (!ConsumeSym("}")) return Error("expected '}' after remote call");
    return e;
  }

  // ------------------------------------------------------- XQUF updating

  StatusOr<ExprPtr> ParseInsert() {
    ConsumeWord("insert");
    if (!ConsumeWord("nodes") && !ConsumeWord("node")) {
      return Error("expected 'nodes'");
    }
    XRPC_ASSIGN_OR_RETURN(ExprPtr src, ParseExprSingle());
    ExprPtr e = MakeExpr(ExprKind::kInsert);
    if (ConsumeWord("as")) {
      if (ConsumeWord("first")) {
        e->insert_pos = InsertPos::kAsFirstInto;
      } else if (ConsumeWord("last")) {
        e->insert_pos = InsertPos::kAsLastInto;
      } else {
        return Error("expected 'first' or 'last'");
      }
      if (!ConsumeWord("into")) return Error("expected 'into'");
    } else if (ConsumeWord("into")) {
      e->insert_pos = InsertPos::kInto;
    } else if (ConsumeWord("before")) {
      e->insert_pos = InsertPos::kBefore;
    } else if (ConsumeWord("after")) {
      e->insert_pos = InsertPos::kAfter;
    } else {
      return Error("expected into/before/after");
    }
    XRPC_ASSIGN_OR_RETURN(ExprPtr tgt, ParseExprSingle());
    e->children.push_back(std::move(src));
    e->children.push_back(std::move(tgt));
    return e;
  }

  StatusOr<ExprPtr> ParseDelete() {
    ConsumeWord("delete");
    if (!ConsumeWord("nodes") && !ConsumeWord("node")) {
      return Error("expected 'nodes'");
    }
    XRPC_ASSIGN_OR_RETURN(ExprPtr tgt, ParseExprSingle());
    ExprPtr e = MakeExpr(ExprKind::kDelete);
    e->children.push_back(std::move(tgt));
    return e;
  }

  StatusOr<ExprPtr> ParseReplace() {
    ConsumeWord("replace");
    bool value_of = false;
    if (ConsumeWord("value")) {
      if (!ConsumeWord("of")) return Error("expected 'of'");
      value_of = true;
    }
    if (!ConsumeWord("node")) return Error("expected 'node'");
    XRPC_ASSIGN_OR_RETURN(ExprPtr tgt, ParseExprSingle());
    if (!ConsumeWord("with")) return Error("expected 'with'");
    XRPC_ASSIGN_OR_RETURN(ExprPtr src, ParseExprSingle());
    ExprPtr e = MakeExpr(value_of ? ExprKind::kReplaceValue
                                  : ExprKind::kReplaceNode);
    e->children.push_back(std::move(tgt));
    e->children.push_back(std::move(src));
    return e;
  }

  StatusOr<ExprPtr> ParseRename() {
    ConsumeWord("rename");
    ConsumeWord("node");
    XRPC_ASSIGN_OR_RETURN(ExprPtr tgt, ParseExprSingle());
    if (!ConsumeWord("as")) return Error("expected 'as'");
    XRPC_ASSIGN_OR_RETURN(ExprPtr name_e, ParseExprSingle());
    ExprPtr e = MakeExpr(ExprKind::kRename);
    e->children.push_back(std::move(tgt));
    e->children.push_back(std::move(name_e));
    return e;
  }

  // ---------------------------------------------------- operator ladder

  StatusOr<ExprPtr> ParseOrExpr() {
    XRPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAndExpr());
    while (ConsumeWord("or")) {
      XRPC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAndExpr());
      ExprPtr e = MakeExpr(ExprKind::kOr);
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseAndExpr() {
    XRPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparisonExpr());
    while (ConsumeWord("and")) {
      XRPC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparisonExpr());
      ExprPtr e = MakeExpr(ExprKind::kAnd);
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseComparisonExpr() {
    XRPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRangeExpr());
    SkipWs();
    CompOp op;
    bool has = true;
    if (ConsumeSym("!=")) {
      op = CompOp::kGenNe;
    } else if (ConsumeSym("<=")) {
      op = CompOp::kGenLe;
    } else if (ConsumeSym(">=")) {
      op = CompOp::kGenGe;
    } else if (ConsumeSym("<<")) {
      op = CompOp::kNodeBefore;
    } else if (ConsumeSym(">>")) {
      op = CompOp::kNodeAfter;
    } else if (ConsumeSym("=")) {
      op = CompOp::kGenEq;
    } else if (LookSym("<") && Peek(1) != '<') {
      ConsumeSym("<");
      op = CompOp::kGenLt;
    } else if (LookSym(">") && Peek(1) != '>') {
      ConsumeSym(">");
      op = CompOp::kGenGt;
    } else if (ConsumeWord("eq")) {
      op = CompOp::kValEq;
    } else if (ConsumeWord("ne")) {
      op = CompOp::kValNe;
    } else if (ConsumeWord("lt")) {
      op = CompOp::kValLt;
    } else if (ConsumeWord("le")) {
      op = CompOp::kValLe;
    } else if (ConsumeWord("gt")) {
      op = CompOp::kValGt;
    } else if (ConsumeWord("ge")) {
      op = CompOp::kValGe;
    } else if (ConsumeWord("is")) {
      op = CompOp::kNodeIs;
    } else {
      has = false;
      op = CompOp::kGenEq;
    }
    if (!has) return lhs;
    XRPC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRangeExpr());
    ExprPtr e = MakeExpr(ExprKind::kComparison);
    e->comp_op = op;
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }

  StatusOr<ExprPtr> ParseRangeExpr() {
    XRPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditiveExpr());
    if (ConsumeWord("to")) {
      XRPC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditiveExpr());
      ExprPtr e = MakeExpr(ExprKind::kRange);
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      return e;
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseAdditiveExpr() {
    XRPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicativeExpr());
    while (true) {
      SkipWs();
      ArithOp op;
      if (ConsumeSym("+")) {
        op = ArithOp::kAdd;
      } else if (LookSym("-") && !LooksLikeNameContinuation()) {
        ConsumeSym("-");
        op = ArithOp::kSub;
      } else {
        return lhs;
      }
      XRPC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicativeExpr());
      ExprPtr e = MakeExpr(ExprKind::kArith);
      e->arith_op = op;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  // A '-' directly following a name char without whitespace would have been
  // consumed as part of the name already; here '-' is always an operator.
  bool LooksLikeNameContinuation() const { return false; }

  StatusOr<ExprPtr> ParseMultiplicativeExpr() {
    XRPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnaryExpr());
    while (true) {
      SkipWs();
      ArithOp op;
      if (ConsumeSym("*")) {
        op = ArithOp::kMul;
      } else if (ConsumeWord("div")) {
        op = ArithOp::kDiv;
      } else if (ConsumeWord("idiv")) {
        op = ArithOp::kIDiv;
      } else if (ConsumeWord("mod")) {
        op = ArithOp::kMod;
      } else {
        return lhs;
      }
      XRPC_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnaryExpr());
      ExprPtr e = MakeExpr(ExprKind::kArith);
      e->arith_op = op;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  StatusOr<ExprPtr> ParseUnaryExpr() {
    SkipWs();
    bool neg = false;
    while (ConsumeSym("-")) {
      neg = !neg;
      SkipWs();
    }
    while (ConsumeSym("+")) SkipWs();
    XRPC_ASSIGN_OR_RETURN(ExprPtr operand, ParseCastExpr());
    if (!neg) return operand;
    ExprPtr e = MakeExpr(ExprKind::kUnaryMinus);
    e->children.push_back(std::move(operand));
    return e;
  }

  StatusOr<ExprPtr> ParseCastExpr() {
    XRPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnionExpr());
    while (true) {
      ExprKind kind;
      if (LookWords("cast", "as")) {
        ConsumeWord("cast");
        ConsumeWord("as");
        kind = ExprKind::kCastAs;
      } else if (LookWords("castable", "as")) {
        ConsumeWord("castable");
        ConsumeWord("as");
        kind = ExprKind::kCastableAs;
      } else if (LookWords("instance", "of")) {
        ConsumeWord("instance");
        ConsumeWord("of");
        kind = ExprKind::kInstanceOf;
      } else if (LookWords("treat", "as")) {
        ConsumeWord("treat");
        ConsumeWord("as");
        kind = ExprKind::kTreatAs;
      } else {
        return lhs;
      }
      ExprPtr e = MakeExpr(kind);
      XRPC_ASSIGN_OR_RETURN(e->seq_type, ParseSequenceType());
      e->children.push_back(std::move(lhs));
      lhs = std::move(e);
    }
  }

  StatusOr<ExprPtr> ParseUnionExpr() {
    XRPC_ASSIGN_OR_RETURN(ExprPtr lhs, ParsePathExpr());
    while (LookSym("|") || LookWord("union")) {
      if (!ConsumeSym("|")) ConsumeWord("union");
      XRPC_ASSIGN_OR_RETURN(ExprPtr rhs, ParsePathExpr());
      ExprPtr e = MakeExpr(ExprKind::kUnion);
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
    return lhs;
  }

  // --------------------------------------------------------------- paths

  StatusOr<ExprPtr> ParsePathExpr() {
    SkipWs();
    bool root = false;
    bool root_descendant = false;
    if (LookSym("//")) {
      ConsumeSym("//");
      root = root_descendant = true;
    } else if (LookSym("/")) {
      ConsumeSym("/");
      root = true;
      SkipWs();
      // A lone "/" selects the root of the context node's tree.
      if (Eof() || !(IsNcNameStart(Peek()) || Peek() == '@' || Peek() == '*' ||
                     Peek() == '.')) {
        ExprPtr e = MakeExpr(ExprKind::kPath);
        e->root_path = true;
        e->children.push_back(nullptr);
        return e;
      }
    }

    ExprPtr path = MakeExpr(ExprKind::kPath);
    path->root_path = root;
    path->children.push_back(nullptr);  // slot 0: source expr (null = ctx/root)

    if (root_descendant) {
      PathStep ds;
      ds.axis = Axis::kDescendantOrSelf;
      ds.test.kind = NodeTest::Kind::kAnyKind;
      path->steps.push_back(std::move(ds));
    }

    bool first = true;
    while (true) {
      SkipWs();
      if (!first) {
        if (ConsumeSym("//")) {
          PathStep ds;
          ds.axis = Axis::kDescendantOrSelf;
          ds.test.kind = NodeTest::Kind::kAnyKind;
          path->steps.push_back(std::move(ds));
        } else if (!ConsumeSym("/")) {
          break;
        }
      }
      if (first && !root) {
        // The first step may be a primary expression (filter expr).
        XRPC_ASSIGN_OR_RETURN(bool is_step, LooksLikeAxisStep());
        if (!is_step) {
          XRPC_ASSIGN_OR_RETURN(ExprPtr primary, ParseFilterExpr());
          SkipWs();
          if (!LookSym("/")) return primary;  // plain primary, no path
          path->children[0] = std::move(primary);
          first = false;
          continue;
        }
      }
      XRPC_ASSIGN_OR_RETURN(PathStep step, ParseAxisStep());
      path->steps.push_back(std::move(step));
      first = false;
    }

    if (path->steps.empty() && path->children[0] != nullptr) {
      return std::move(path->children[0]);
    }
    return path;
  }

  // Heuristic: the upcoming token starts an axis step rather than a primary
  // expression.
  StatusOr<bool> LooksLikeAxisStep() {
    SkipWs();
    char c = Peek();
    if (c == '@' || c == '*') return true;
    // Computed constructors win over a name test of the same spelling.
    if (IsComputedCtor("element") || IsComputedCtor("attribute") ||
        WordThenSym("text", "{") || WordThenSym("comment", "{") ||
        WordThenSym("document", "{") || WordThenSym("ordered", "{") ||
        WordThenSym("unordered", "{")) {
      return false;
    }
    if (c == '.' && Peek(1) != '.' && !IsDigit(Peek(1))) {
      return false;  // context item primary
    }
    if (c == '.' && Peek(1) == '.') return true;  // ".."
    if (!IsNcNameStart(c)) return false;
    // Name followed by '(' is a function call (primary) unless it is a kind
    // test or axis name.
    size_t save = pos_;
    auto pq_or = ParseLexicalQName();
    if (!pq_or.ok()) {
      pos_ = save;
      return pq_or.status();
    }
    auto pq = pq_or.value();
    SkipWs();
    bool paren = Peek() == '(';
    bool axis = src_.substr(pos_, 2) == "::";
    pos_ = save;
    if (axis) return true;
    if (!paren) return true;  // name test
    static const char* kKindTests[] = {"node",       "text",
                                       "comment",    "processing-instruction",
                                       "element",    "attribute",
                                       "document-node"};
    if (pq.first.empty()) {
      for (const char* k : kKindTests) {
        if (pq.second == k) return true;
      }
    }
    return false;  // function call
  }

  StatusOr<PathStep> ParseAxisStep() {
    PathStep step;
    SkipWs();
    if (ConsumeSym("..")) {
      step.axis = Axis::kParent;
      step.test.kind = NodeTest::Kind::kAnyKind;
      XRPC_RETURN_IF_ERROR(ParsePredicates(&step.predicates));
      return step;
    }
    if (ConsumeSym("@")) {
      step.axis = Axis::kAttribute;
      XRPC_RETURN_IF_ERROR(ParseNodeTest(&step.test, /*attribute=*/true));
      XRPC_RETURN_IF_ERROR(ParsePredicates(&step.predicates));
      return step;
    }
    // Optional explicit axis.
    static const std::pair<const char*, Axis> kAxes[] = {
        {"child", Axis::kChild},
        {"descendant-or-self", Axis::kDescendantOrSelf},
        {"descendant", Axis::kDescendant},
        {"self", Axis::kSelf},
        {"attribute", Axis::kAttribute},
        {"parent", Axis::kParent},
        {"ancestor-or-self", Axis::kAncestorOrSelf},
        {"ancestor", Axis::kAncestor},
        {"following-sibling", Axis::kFollowingSibling},
        {"preceding-sibling", Axis::kPrecedingSibling},
    };
    step.axis = Axis::kChild;
    for (const auto& [name, axis] : kAxes) {
      size_t save = pos_;
      if (ConsumeWord(name)) {
        if (ConsumeSym("::")) {
          step.axis = axis;
          break;
        }
        pos_ = save;
      }
    }
    XRPC_RETURN_IF_ERROR(
        ParseNodeTest(&step.test, step.axis == Axis::kAttribute));
    XRPC_RETURN_IF_ERROR(ParsePredicates(&step.predicates));
    return step;
  }

  Status ParseNodeTest(NodeTest* test, bool attribute) {
    SkipWs();
    if (ConsumeSym("*")) {
      test->kind = NodeTest::Kind::kName;
      test->wildcard = true;
      return Status::OK();
    }
    XRPC_ASSIGN_OR_RETURN(auto pq, ParseLexicalQName());
    SkipWs();
    if (pq.first.empty() && Peek() == '(') {
      // Kind test.
      ConsumeSym("(");
      std::string arg;
      while (!Eof() && Peek() != ')') arg.push_back(src_[pos_++]);
      if (!ConsumeSym(")")) return Error("expected ')' in kind test");
      if (pq.second == "node") {
        test->kind = NodeTest::Kind::kAnyKind;
      } else if (pq.second == "text") {
        test->kind = NodeTest::Kind::kText;
      } else if (pq.second == "comment") {
        test->kind = NodeTest::Kind::kComment;
      } else if (pq.second == "processing-instruction") {
        test->kind = NodeTest::Kind::kPi;
      } else if (pq.second == "element") {
        test->kind = NodeTest::Kind::kElement;
      } else if (pq.second == "attribute") {
        test->kind = NodeTest::Kind::kAttribute;
      } else if (pq.second == "document-node") {
        test->kind = NodeTest::Kind::kDocument;
      } else {
        return Error("unknown kind test: " + pq.second);
      }
      return Status::OK();
    }
    std::string uri;
    if (!pq.first.empty()) {
      XRPC_ASSIGN_OR_RETURN(uri, ResolvePrefix(pq.first));
    } else if (!attribute) {
      uri = "";  // default element namespace (none declared)
    }
    test->kind = NodeTest::Kind::kName;
    test->name = xml::QName(uri, pq.second, pq.first);
    return Status::OK();
  }

  Status ParsePredicates(std::vector<ExprPtr>* preds) {
    while (LookSym("[")) {
      ConsumeSym("[");
      XRPC_ASSIGN_OR_RETURN(ExprPtr p, ParseExpr());
      if (!ConsumeSym("]")) return Error("expected ']'");
      preds->push_back(std::move(p));
    }
    return Status::OK();
  }

  StatusOr<ExprPtr> ParseFilterExpr() {
    XRPC_ASSIGN_OR_RETURN(ExprPtr primary, ParsePrimaryExpr());
    if (!LookSym("[")) return primary;
    ExprPtr e = MakeExpr(ExprKind::kFilter);
    e->children.push_back(std::move(primary));
    XRPC_RETURN_IF_ERROR(ParsePredicates(&e->predicates));
    return e;
  }

  // ------------------------------------------------------------- primary

  StatusOr<ExprPtr> ParsePrimaryExpr() {
    SkipWs();
    char c = Peek();
    if (c == '$') {
      ExprPtr e = MakeExpr(ExprKind::kVarRef);
      XRPC_ASSIGN_OR_RETURN(e->name, ParseVarName());
      return e;
    }
    if (c == '(') {
      ConsumeSym("(");
      if (ConsumeSym(")")) {
        return MakeExpr(ExprKind::kSequence);  // empty sequence ()
      }
      XRPC_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      if (!ConsumeSym(")")) return Error("expected ')'");
      return inner;
    }
    if (c == '"' || c == '\'') {
      XRPC_ASSIGN_OR_RETURN(std::string s, ParseStringLiteral());
      ExprPtr e = MakeExpr(ExprKind::kLiteral);
      e->literal = xdm::AtomicValue::String(std::move(s));
      return e;
    }
    if (IsDigit(c) || (c == '.' && IsDigit(Peek(1)))) {
      return ParseNumericLiteral();
    }
    if (c == '.' && Peek(1) != '.') {
      ConsumeSym(".");
      return MakeExpr(ExprKind::kContextItem);
    }
    if (c == '<') {
      return ParseDirectConstructor();
    }
    // Computed constructors and function calls.
    if (IsComputedCtor("element")) return ParseComputedCtor(ExprKind::kElementCtor);
    if (IsComputedCtor("attribute"))
      return ParseComputedCtor(ExprKind::kAttributeCtor);
    if (WordThenSym("text", "{")) return ParseComputedCtor(ExprKind::kTextCtor);
    if (WordThenSym("comment", "{"))
      return ParseComputedCtor(ExprKind::kCommentCtor);
    if (WordThenSym("document", "{"))
      return ParseComputedCtor(ExprKind::kDocumentCtor);
    if (LookWord("ordered") || LookWord("unordered")) {
      size_t save = pos_;
      ConsumeWord(LookWord("ordered") ? "ordered" : "unordered");
      if (ConsumeSym("{")) {
        XRPC_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        if (!ConsumeSym("}")) return Error("expected '}'");
        return inner;
      }
      pos_ = save;
    }
    if (IsNcNameStart(c)) {
      return ParseFunctionCall();
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

  StatusOr<ExprPtr> ParseNumericLiteral() {
    SkipWs();
    size_t start = pos_;
    while (IsDigit(Peek())) ++pos_;
    bool is_decimal = false, is_double = false;
    if (Peek() == '.' && IsDigit(Peek(1))) {
      is_decimal = true;
      ++pos_;
      while (IsDigit(Peek())) ++pos_;
    } else if (Peek() == '.' && !IsNcNameStart(Peek(1))) {
      is_decimal = true;
      ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      is_double = true;
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!IsDigit(Peek())) return Error("malformed double literal");
      while (IsDigit(Peek())) ++pos_;
    }
    std::string text(src_.substr(start, pos_ - start));
    ExprPtr e = MakeExpr(ExprKind::kLiteral);
    if (is_double) {
      XRPC_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      e->literal = xdm::AtomicValue::Double(v);
    } else if (is_decimal) {
      XRPC_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      e->literal = xdm::AtomicValue::Decimal(v);
    } else {
      XRPC_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      e->literal = xdm::AtomicValue::Integer(v);
    }
    return e;
  }

  StatusOr<ExprPtr> ParseFunctionCall() {
    XRPC_ASSIGN_OR_RETURN(xml::QName name, ParseFunctionQName());
    SkipWs();
    if (!ConsumeSym("(")) {
      return Error("expected '(' after function name " + name.Lexical());
    }
    ExprPtr e = MakeExpr(ExprKind::kFunctionCall);
    e->name = std::move(name);
    if (!LookSym(")")) {
      do {
        XRPC_ASSIGN_OR_RETURN(ExprPtr arg, ParseExprSingle());
        e->children.push_back(std::move(arg));
      } while (ConsumeSym(","));
    }
    if (!ConsumeSym(")")) return Error("expected ')' in function call");
    return e;
  }

  StatusOr<ExprPtr> ParseComputedCtor(ExprKind kind) {
    if (kind == ExprKind::kElementCtor) {
      ConsumeWord("element");
    } else if (kind == ExprKind::kAttributeCtor) {
      ConsumeWord("attribute");
    } else if (kind == ExprKind::kTextCtor) {
      ConsumeWord("text");
    } else if (kind == ExprKind::kCommentCtor) {
      ConsumeWord("comment");
    } else {
      ConsumeWord("document");
    }
    ExprPtr e = MakeExpr(kind);
    if (kind == ExprKind::kElementCtor || kind == ExprKind::kAttributeCtor) {
      SkipWs();
      if (Peek() == '{') {
        ConsumeSym("{");
        XRPC_ASSIGN_OR_RETURN(e->name_expr, ParseExpr());
        if (!ConsumeSym("}")) return Error("expected '}'");
      } else {
        XRPC_ASSIGN_OR_RETURN(e->name, ParseQName());
      }
    }
    if (!ConsumeSym("{")) return Error("expected '{'");
    if (!LookSym("}")) {
      XRPC_ASSIGN_OR_RETURN(ExprPtr content, ParseExpr());
      e->children.push_back(std::move(content));
    }
    if (!ConsumeSym("}")) return Error("expected '}'");
    return e;
  }

  // ------------------------------------------------- direct constructors

  // pos_ is at '<'.
  StatusOr<ExprPtr> ParseDirectConstructor() {
    if (src_.substr(pos_, 4) == "<!--") {
      pos_ += 4;
      size_t end = src_.find("-->", pos_);
      if (end == std::string_view::npos) return Error("unterminated comment");
      ExprPtr e = MakeExpr(ExprKind::kCommentCtor);
      ExprPtr lit = MakeExpr(ExprKind::kLiteral);
      lit->literal =
          xdm::AtomicValue::String(std::string(src_.substr(pos_, end - pos_)));
      e->children.push_back(std::move(lit));
      pos_ = end + 3;
      return e;
    }
    if (src_.substr(pos_, 2) == "<?") {
      pos_ += 2;
      XRPC_ASSIGN_OR_RETURN(std::string target, ParseNCName());
      size_t end = src_.find("?>", pos_);
      if (end == std::string_view::npos) return Error("unterminated PI");
      ExprPtr e = MakeExpr(ExprKind::kPiCtor);
      e->name = xml::QName(std::move(target));
      ExprPtr lit = MakeExpr(ExprKind::kLiteral);
      lit->literal = xdm::AtomicValue::String(
          std::string(TrimWhitespace(src_.substr(pos_, end - pos_))));
      e->children.push_back(std::move(lit));
      pos_ = end + 2;
      return e;
    }
    return ParseDirectElement();
  }

  StatusOr<ExprPtr> ParseDirectElement() {
    NestingScope nesting(&depth_);
    if (depth_ > kMaxNestingDepth) return Error("element nested too deeply");
    if (!ConsumeSym("<")) return Error("expected '<'");
    // Element names in constructors are parsed lexically; namespace
    // resolution uses prolog-declared prefixes (plus any xmlns attributes,
    // which we record as plain attributes and also bind here).
    XRPC_ASSIGN_OR_RETURN(auto pq, ParseLexicalQName());

    ExprPtr e = MakeExpr(ExprKind::kElementCtor);
    std::vector<std::pair<std::string, std::string>> local_ns;

    // Attributes.
    while (true) {
      SkipWs();
      if (LookSym("/>") || LookSym(">")) break;
      if (Eof()) return Error("unterminated start tag");
      XRPC_ASSIGN_OR_RETURN(auto apq, ParseLexicalQName());
      SkipWs();
      if (!ConsumeSym("=")) return Error("expected '=' in attribute");
      SkipWs();
      char quote = Peek();
      if (quote != '"' && quote != '\'') {
        return Error("expected quoted attribute value");
      }
      ++pos_;
      // Attribute value template: literal text + {expr} parts.
      ExprPtr attr = MakeExpr(ExprKind::kAttributeCtor);
      std::string lit;
      auto flush = [&]() {
        if (lit.empty()) return;
        ExprPtr t = MakeExpr(ExprKind::kLiteral);
        t->literal = xdm::AtomicValue::String(lit);
        attr->children.push_back(std::move(t));
        lit.clear();
      };
      while (!Eof() && Peek() != quote) {
        char c = Peek();
        if (c == '{') {
          if (Peek(1) == '{') {
            lit.push_back('{');
            pos_ += 2;
            continue;
          }
          ConsumeSym("{");
          flush();
          XRPC_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          if (!ConsumeSym("}")) return Error("expected '}'");
          attr->children.push_back(std::move(inner));
          continue;
        }
        if (c == '}') {
          if (Peek(1) == '}') {
            lit.push_back('}');
            pos_ += 2;
            continue;
          }
          return Error("'}' must be escaped in attribute value");
        }
        if (c == '&') {
          XRPC_RETURN_IF_ERROR(ParseEntityRef(&lit));
          continue;
        }
        lit.push_back(c);
        ++pos_;
      }
      flush();
      ++pos_;  // closing quote
      if (apq.first.empty() && apq.second == "xmlns") {
        // Static evaluation of the namespace attribute value.
        std::string uri = AttrLiteralValue(*attr);
        local_ns.emplace_back("", uri);
        continue;
      }
      if (apq.first == "xmlns") {
        local_ns.emplace_back(apq.second, AttrLiteralValue(*attr));
        continue;
      }
      attr->name = xml::QName("", apq.second, apq.first);  // resolved below
      e->attributes.push_back(std::move(attr));
    }

    size_t scope_mark = ns_.size();
    for (auto& b : local_ns) ns_.push_back(b);

    // Resolve element and attribute names now that xmlns bindings are known.
    {
      XRPC_ASSIGN_OR_RETURN(std::string euri, ResolvePrefix(pq.first));
      e->name = xml::QName(euri, pq.second, pq.first);
      for (ExprPtr& attr : e->attributes) {
        if (!attr->name.prefix.empty()) {
          XRPC_ASSIGN_OR_RETURN(std::string auri,
                                ResolvePrefix(attr->name.prefix));
          attr->name.ns_uri = auri;
        }
      }
    }

    SkipWs();
    if (ConsumeSym("/>")) {
      ns_.resize(scope_mark);
      return e;
    }
    if (!ConsumeSym(">")) return Error("expected '>'");

    // Element content: literal text, nested elements, enclosed expressions.
    std::string lit;
    auto flush = [&]() {
      // Boundary whitespace between constructs is stripped (XQuery default
      // boundary-space strip).
      bool all_ws = true;
      for (char c : lit) {
        if (!IsXmlWhitespace(c)) {
          all_ws = false;
          break;
        }
      }
      if (!lit.empty() && !all_ws) {
        ExprPtr t = MakeExpr(ExprKind::kTextCtor);
        t->literal = xdm::AtomicValue::String(lit);
        e->children.push_back(std::move(t));
      }
      lit.clear();
    };

    while (true) {
      if (Eof()) return Error("unterminated element constructor");
      char c = Peek();
      if (c == '<') {
        if (src_.substr(pos_, 2) == "</") {
          flush();
          pos_ += 2;
          XRPC_ASSIGN_OR_RETURN(auto epq, ParseLexicalQName());
          SkipWs();
          if (!ConsumeSym(">")) return Error("malformed end tag");
          if (epq != pq) {
            return Error("mismatched end tag </" +
                         (epq.first.empty() ? epq.second
                                            : epq.first + ":" + epq.second) +
                         ">");
          }
          ns_.resize(scope_mark);
          return e;
        }
        if (src_.substr(pos_, 9) == "<![CDATA[") {
          size_t end = src_.find("]]>", pos_ + 9);
          if (end == std::string_view::npos) return Error("unterminated CDATA");
          lit.append(src_.substr(pos_ + 9, end - pos_ - 9));
          pos_ = end + 3;
          continue;
        }
        flush();
        XRPC_ASSIGN_OR_RETURN(ExprPtr child, ParseDirectConstructor());
        e->children.push_back(std::move(child));
        continue;
      }
      if (c == '{') {
        if (Peek(1) == '{') {
          lit.push_back('{');
          pos_ += 2;
          continue;
        }
        ConsumeSym("{");
        flush();
        XRPC_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        SkipWs();
        if (!ConsumeSym("}")) return Error("expected '}' in element content");
        e->children.push_back(std::move(inner));
        continue;
      }
      if (c == '}') {
        if (Peek(1) == '}') {
          lit.push_back('}');
          pos_ += 2;
          continue;
        }
        return Error("'}' must be escaped in element content");
      }
      if (c == '&') {
        XRPC_RETURN_IF_ERROR(ParseEntityRef(&lit));
        continue;
      }
      lit.push_back(c);
      ++pos_;
    }
  }

  // Concatenates the literal parts of an attribute constructor (used for
  // xmlns attributes, which must be static).
  static std::string AttrLiteralValue(const Expr& attr) {
    std::string out;
    for (const ExprPtr& c : attr.children) {
      if (c->kind == ExprKind::kLiteral) out += c->literal.ToString();
    }
    return out;
  }

  /// Deepest nesting of the two recursive entries, ParseExprSingle and
  /// ParseDirectElement. Every nesting cycle of the grammar (parentheses,
  /// predicates, arguments, FLWOR/if operands, enclosed expressions, direct
  /// element content) passes through one of them. Each level stacks a
  /// dozen recursive-descent frames: a few KB in an optimized build and
  /// about 25 KB under AddressSanitizer, so 128 levels stay well inside an
  /// 8 MB thread stack, and an untrusted query such as 10,000 nested
  /// parentheses becomes a parse error instead of a stack overflow.
  static constexpr int kMaxNestingDepth = 128;

  /// Counts one level of nesting for its lifetime.
  struct NestingScope {
    explicit NestingScope(int* depth) : depth(depth) { ++*depth; }
    ~NestingScope() { --*depth; }
    int* depth;
  };

  std::string_view src_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< current nesting (see kMaxNestingDepth)
  /// Line of the first unterminated comment SkipWs ran into (0 = none);
  /// see Error() — it beats whatever confusing EOF error follows.
  int unterminated_comment_line_ = 0;
  std::vector<std::pair<std::string, std::string>> ns_;
  std::string module_target_ns_;
};

}  // namespace

StatusOr<MainModule> ParseMainModule(std::string_view text) {
  Parser p(text);
  return p.ParseMain();
}

StatusOr<LibraryModule> ParseLibraryModule(std::string_view text) {
  Parser p(text);
  return p.ParseLibrary();
}

}  // namespace xrpc::xquery
