#include "lang/lexer.h"

#include <gtest/gtest.h>

#include <memory>

namespace apex::lang {
namespace {

/// Tokens together with the SourceFile their spellings borrow from.  The
/// file lives on the heap, so moving a Lexed never moves the text.
struct Lexed {
  std::unique_ptr<SourceFile> src;
  std::vector<Token> toks;

  const Token& operator[](std::size_t i) const { return toks[i]; }
  std::size_t size() const { return toks.size(); }
  const Token& back() const { return toks.back(); }
};

Lexed lex_ok(const std::string& text) {
  Lexed out{std::make_unique<SourceFile>(SourceFile{"<test>", text}), {}};
  std::vector<Diagnostic> diags;
  out.toks = lex(*out.src, diags);
  EXPECT_TRUE(diags.empty()) << (diags.empty() ? "" : diags[0].message);
  return out;
}

void expect_loc(const Token& t, std::size_t line, std::size_t col,
                std::size_t offset) {
  EXPECT_EQ(t.loc.line, line) << "token '" << t.text << "'";
  EXPECT_EQ(t.loc.col, col) << "token '" << t.text << "'";
  EXPECT_EQ(t.loc.offset, offset) << "token '" << t.text << "'";
}

TEST(Lexer, TokenKindsAndValues) {
  const auto toks = lex_ok("pram demo { } [ ] , : = 42");
  ASSERT_EQ(toks.size(), 11u);  // 10 tokens + kEnd
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "pram");
  EXPECT_EQ(toks[1].text, "demo");
  EXPECT_EQ(toks[2].kind, TokKind::kLBrace);
  EXPECT_EQ(toks[3].kind, TokKind::kRBrace);
  EXPECT_EQ(toks[4].kind, TokKind::kLBracket);
  EXPECT_EQ(toks[5].kind, TokKind::kRBracket);
  EXPECT_EQ(toks[6].kind, TokKind::kComma);
  EXPECT_EQ(toks[7].kind, TokKind::kColon);
  EXPECT_EQ(toks[8].kind, TokKind::kEq);
  EXPECT_EQ(toks[9].kind, TokKind::kInt);
  EXPECT_EQ(toks[9].value, 42u);
  EXPECT_EQ(toks.back().kind, TokKind::kEnd);
}

TEST(Lexer, LocationsAreOneBasedLineAndCol) {
  const auto toks = lex_ok("pram p\n  procs 4\n");
  ASSERT_GE(toks.size(), 4u);
  EXPECT_EQ(toks[0].loc.line, 1u);
  EXPECT_EQ(toks[0].loc.col, 1u);
  EXPECT_EQ(toks[1].loc.col, 6u);
  EXPECT_EQ(toks[2].loc.line, 2u);
  EXPECT_EQ(toks[2].loc.col, 3u);   // after two-space indent
  EXPECT_EQ(toks[3].loc.line, 2u);
  EXPECT_EQ(toks[3].loc.col, 9u);
}

TEST(Lexer, CommentsRunToEndOfLine) {
  const auto toks = lex_ok("# whole-line comment\npram x # trailing\n42");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "pram");
  EXPECT_EQ(toks[1].text, "x");
  EXPECT_EQ(toks[2].value, 42u);
}

TEST(Lexer, UnderscoreIdentifiers) {
  const auto toks = lex_ok("_x gather_dyn a1_b2");
  EXPECT_EQ(toks[0].text, "_x");
  EXPECT_EQ(toks[1].text, "gather_dyn");
  EXPECT_EQ(toks[2].text, "a1_b2");
}

TEST(Lexer, MaxUint64Literal) {
  const auto toks = lex_ok("18446744073709551615");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].value, 18446744073709551615ULL);
}

// Location tracking moves the line start only at '\n'; every other byte,
// '\r' and '\t' included, is one column.

TEST(Lexer, CrlfLineEndings) {
  const auto toks = lex_ok("pram p\r\nprocs 4\r\n");
  ASSERT_EQ(toks.size(), 5u);
  expect_loc(toks[0], 1, 1, 0);
  expect_loc(toks[1], 1, 6, 5);
  expect_loc(toks[2], 2, 1, 8);
  expect_loc(toks[3], 2, 7, 14);
  EXPECT_EQ(toks[3].value, 4u);
  EXPECT_EQ(toks[4].kind, TokKind::kEnd);
  expect_loc(toks[4], 3, 1, 17);
}

TEST(Lexer, TabsCountOneColumn) {
  const auto toks = lex_ok("\tpram\tp\n\t\t42");
  ASSERT_EQ(toks.size(), 4u);
  expect_loc(toks[0], 1, 2, 1);
  expect_loc(toks[1], 1, 7, 6);
  expect_loc(toks[2], 2, 3, 10);
  expect_loc(toks[3], 2, 5, 12);
}

TEST(Lexer, CommentAtEofWithoutNewline) {
  const auto toks = lex_ok("pram p # trailing");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[1].text, "p");
  EXPECT_EQ(toks[2].kind, TokKind::kEnd);
  expect_loc(toks[2], 1, 18, 17);
}

TEST(Lexer, EmptyFile) {
  const auto toks = lex_ok("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, TokKind::kEnd);
  EXPECT_TRUE(toks[0].text.empty());
  expect_loc(toks[0], 1, 1, 0);
}

TEST(Lexer, TokenEndingExactlyAtEof) {
  const auto num = lex_ok("pram p\n42");
  ASSERT_EQ(num.size(), 4u);
  EXPECT_EQ(num[2].text, "42");
  EXPECT_EQ(num[2].value, 42u);
  expect_loc(num[2], 2, 1, 7);
  expect_loc(num[3], 2, 3, 9);
  const auto ident = lex_ok("pram abc");
  ASSERT_EQ(ident.size(), 3u);
  EXPECT_EQ(ident[1].text, "abc");
  expect_loc(ident[1], 1, 6, 5);
  expect_loc(ident[2], 1, 9, 8);
}

TEST(Lexer, StreamMatchesLexAndStaysAtEnd) {
  SourceFile src{"<test>", "pram p\n  procs 4 # c\nstep { 0: nop }"};
  std::vector<Diagnostic> diags;
  const auto toks = lex(src, diags);
  Lexer lexer(src, diags);
  for (const Token& want : toks) {
    const Token got = lexer.next();
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.text, want.text);
    EXPECT_EQ(got.loc.offset, want.loc.offset);
  }
  const Token again = lexer.next();
  EXPECT_EQ(again.kind, TokKind::kEnd);
  EXPECT_EQ(again.loc.offset, src.text.size());
  EXPECT_TRUE(diags.empty());
}

TEST(Lexer, StreamStopsAtLexicalError) {
  SourceFile src{"<test>", "a\r\n\r\n  @ b"};
  std::vector<Diagnostic> diags;
  Lexer lexer(src, diags);
  EXPECT_EQ(lexer.next().text, "a");
  for (int i = 0; i < 2; ++i) {
    const Token t = lexer.next();
    EXPECT_EQ(t.kind, TokKind::kEnd);
    expect_loc(t, 3, 3, 7);
  }
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].message, "unexpected character '@'");
}

TEST(Lexer, IntegerOverflowIsDiagnosed) {
  SourceFile src{"<test>", "pram p\n18446744073709551616"};
  std::vector<Diagnostic> diags;
  const auto toks = lex(src, diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("does not fit in 64 bits"),
            std::string::npos);
  EXPECT_EQ(diags[0].loc.line, 2u);
  EXPECT_EQ(toks.back().kind, TokKind::kEnd);  // stream still terminated
}

TEST(Lexer, StrayCharacterIsDiagnosed) {
  SourceFile src{"<test>", "pram p\n  @bad"};
  std::vector<Diagnostic> diags;
  lex(src, diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].loc.line, 2u);
  EXPECT_EQ(diags[0].loc.col, 3u);
}

TEST(Lexer, RenderDiagnosticHasCaretUnderColumn) {
  SourceFile src{"bad.pram", "pram p\n  @bad"};
  std::vector<Diagnostic> diags;
  lex(src, diags);
  ASSERT_EQ(diags.size(), 1u);
  const std::string out = render_diagnostic(src, diags[0]);
  EXPECT_NE(out.find("bad.pram:2:3: error:"), std::string::npos);
  EXPECT_NE(out.find("  @bad\n"), std::string::npos);
  // Caret line: two-space gutter + (col-1) pad puts the ^ under the @.
  EXPECT_NE(out.find("\n    ^\n"), std::string::npos);
}

}  // namespace
}  // namespace apex::lang
