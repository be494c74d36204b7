// Negative-path parser coverage: malformed XQuery must come back as a
// structured parse error naming the problem (and its line), never as a
// crash, a hang, or a silently wrong parse. The differential fuzzer leans
// on this — both engines treat "parse error" as an agreeing outcome, so
// the errors themselves have to be trustworthy.

#include <gtest/gtest.h>

#include <string>

#include "tests/test_util.h"
#include "xquery/parser.h"

namespace xrpc::xquery {
namespace {

/// Expects a parse failure whose message contains `substr`.
void ExpectParseError(const std::string& query, const std::string& substr) {
  auto parsed = ParseMainModule(query);
  ASSERT_FALSE(parsed.ok()) << "parsed unexpectedly: " << query;
  const std::string msg = parsed.status().ToString();
  EXPECT_NE(msg.find("parse error"), std::string::npos) << msg;
  EXPECT_NE(msg.find(substr), std::string::npos)
      << "wanted '" << substr << "' in: " << msg;
}

// -- malformed FLWOR -------------------------------------------------------

TEST(ParserNegativeTest, ForWithoutIn) {
  ExpectParseError("for $x doc(\"a.xml\")//b return $x", "expected 'in'");
}

TEST(ParserNegativeTest, ForWithoutReturn) {
  ExpectParseError("for $x in (1, 2, 3) where $x > 1", "expected 'return'");
}

TEST(ParserNegativeTest, LetWithoutReturn) {
  ExpectParseError("let $x := 1", "expected 'return'");
}

TEST(ParserNegativeTest, OrderByWithoutBy) {
  ExpectParseError("for $x in (1, 2) order $x return $x", "expected 'by'");
}

TEST(ParserNegativeTest, QuantifiedWithoutSatisfies) {
  ExpectParseError("every $x in (1, 2) $x > 0", "expected 'satisfies'");
}

TEST(ParserNegativeTest, IfWithoutElse) {
  ExpectParseError("if (1 = 1) then 2", "expected 'else'");
}

// -- unterminated constructors and literals --------------------------------

TEST(ParserNegativeTest, UnterminatedElementConstructor) {
  auto parsed = ParseMainModule("<open><inner>text</inner>");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("parse error"),
            std::string::npos);
}

TEST(ParserNegativeTest, MismatchedEndTag) {
  ExpectParseError("<a>{1}</b>", "tag");
}

TEST(ParserNegativeTest, UnterminatedStringLiteral) {
  ExpectParseError("\"no closing quote", "unterminated string literal");
}

TEST(ParserNegativeTest, UnterminatedComment) {
  ExpectParseError("1 + (: never closed", "unterminated comment");
}

TEST(ParserNegativeTest, UnescapedClosingBraceInContent) {
  ExpectParseError("<a>}</a>", "escaped");
}

TEST(ParserNegativeTest, ErrorsReportTheLine) {
  auto parsed = ParseMainModule("1 +\n2 +\n\"unterminated");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("line 3"), std::string::npos)
      << parsed.status().ToString();
}

// -- malformed execute at --------------------------------------------------

TEST(ParserNegativeTest, ExecuteAtWithoutDestinationBraces) {
  ExpectParseError(
      "execute at \"xrpc://b.example.org\" {1 + 1}",
      "expected '{' after 'execute at'");
}

TEST(ParserNegativeTest, ExecuteAtUnclosedDestination) {
  ExpectParseError("execute at {\"xrpc://b.example.org\" {1}",
                   "expected '}' after destination");
}

TEST(ParserNegativeTest, ExecuteAtWithoutCallBody) {
  ExpectParseError("execute at {\"xrpc://b.example.org\"} 1",
                   "expected '{' (remote call)");
}

TEST(ParserNegativeTest, ExecuteAtUnclosedCallBody) {
  // The call body must be a module function call; an unclosed one dies
  // with a clean error while trying to read the closing brace.
  ExpectParseError(
      "declare namespace f = \"urn:f\";\n"
      "execute at {\"xrpc://b.example.org\"} {f:g(1)",
      "expected '}' after remote call");
}

TEST(ParserNegativeTest, ExecuteAtBodyMustBeAFunctionCall) {
  ExpectParseError("execute at {\"xrpc://b.example.org\"} {1 + 1}",
                   "expected a name");
}

// A syntactically valid execute-at whose URI is garbage must surface as an
// evaluation error (no RPC handler / unroutable destination), not a crash.
TEST(ParserNegativeTest, ExecuteAtBadUriFailsAtRuntimeNotParse) {
  const std::string query =
      "declare namespace f = \"urn:f\";\n"
      "execute at {\"not a uri at all\"} {f:g()}";
  ASSERT_TRUE(ParseMainModule(query).ok());
  const std::string result = xrpc::testing::EvalToString(query);
  EXPECT_EQ(result.rfind("ERROR:", 0), 0u) << result;
}

// -- malformed updates -----------------------------------------------------

TEST(ParserNegativeTest, InsertWithoutNodesKeyword) {
  // Without the `nodes` keyword this is not an update expression at all;
  // `insert` re-parses as a path step and dies cleanly on the `<`.
  auto parsed = ParseMainModule("insert <a/> into doc(\"d.xml\")/r");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("parse error"),
            std::string::npos);
}

TEST(ParserNegativeTest, InsertWithoutInto) {
  ExpectParseError("insert nodes <a/> doc(\"d.xml\")/r",
                   "expected into/before/after");
}

TEST(ParserNegativeTest, ReplaceWithoutWith) {
  ExpectParseError("replace value of node doc(\"d.xml\")/r/a",
                   "expected 'with'");
}

TEST(ParserNegativeTest, RenameWithoutAs) {
  ExpectParseError("rename node doc(\"d.xml\")/r/a \"b\"", "expected 'as'");
}

// -- junk that once upon a time crashed recursive-descent parsers ----------

TEST(ParserNegativeTest, DeeplyNestedParensDoNotOverflow) {
  std::string query(400, '(');
  query += "1";
  query += std::string(400, ')');
  auto parsed = ParseMainModule(query);
  // Either a clean parse or a clean error — never a crash.
  if (!parsed.ok()) {
    EXPECT_NE(parsed.status().ToString().find("parse error"),
              std::string::npos);
  }
}

TEST(ParserNegativeTest, TenThousandNestedParensAreAParseError) {
  // Past the nesting budget: a clean error in every build, where the
  // unbounded recursive descent used to overflow the stack.
  std::string query(10000, '(');
  query += "1";
  query += std::string(10000, ')');
  ExpectParseError(query, "nested too deeply");
}

TEST(ParserNegativeTest, DeeplyNestedDirectElementsAreAParseError) {
  // Direct element content recurses without passing through an
  // expression, so the element entry counts against the same budget.
  std::string query;
  for (int i = 0; i < 10000; ++i) query += "<a>";
  for (int i = 0; i < 10000; ++i) query += "</a>";
  ExpectParseError(query, "nested too deeply");
}

TEST(ParserNegativeTest, NestingWithinTheBudgetStillParses) {
  std::string query(100, '(');
  query += "1";
  query += std::string(100, ')');
  EXPECT_TRUE(ParseMainModule(query).ok());
  std::string elems;
  for (int i = 0; i < 100; ++i) elems += "<a>";
  for (int i = 0; i < 100; ++i) elems += "</a>";
  EXPECT_TRUE(ParseMainModule(elems).ok());
}

TEST(ParserNegativeTest, TrailingContentIsRejected) {
  // (Note `1 + 1 <banana` would be VALID — `<` is the less-than operator
  // and `banana` a child step. Use genuinely trailing content.)
  ExpectParseError("1 + 1 2", "unexpected trailing content");
}

TEST(ParserNegativeTest, EmptyQueryIsRejectedNotCrashed) {
  EXPECT_FALSE(ParseMainModule("").ok());
  EXPECT_FALSE(ParseMainModule("   \n  ").ok());
}

}  // namespace
}  // namespace xrpc::xquery
