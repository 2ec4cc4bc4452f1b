//===- tests/lexer_test.cpp - Tests for the Python lexer ------------------===//

#include "pyast/Lexer.h"

#include <gtest/gtest.h>

#include <utility>

using namespace seldon;
using namespace seldon::pyast;

namespace {

std::vector<Token> lex(std::string_view Source) {
  Lexer L(Source);
  return L.lexAll();
}

/// Returns the token kinds, dropping the trailing EndOfFile.
std::vector<TokenKind> kindsOf(std::string_view Source) {
  std::vector<TokenKind> Kinds;
  for (const Token &T : lex(Source))
    Kinds.push_back(T.Kind);
  EXPECT_FALSE(Kinds.empty());
  EXPECT_EQ(Kinds.back(), TokenKind::EndOfFile);
  Kinds.pop_back();
  return Kinds;
}

TEST(LexerTest, EmptyInput) {
  auto Tokens = lex("");
  ASSERT_EQ(Tokens.size(), 1u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::EndOfFile);
}

TEST(LexerTest, SimpleAssignment) {
  auto Kinds = kindsOf("x = 1\n");
  std::vector<TokenKind> Expected{TokenKind::Name, TokenKind::Equal,
                                  TokenKind::Number, TokenKind::Newline};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, KeywordsVsNames) {
  auto Tokens = lex("def deff\n");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwDef);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Name);
  EXPECT_EQ(Tokens[1].Text, "deff");
}

TEST(LexerTest, IndentDedent) {
  auto Kinds = kindsOf("if x:\n    y = 1\nz = 2\n");
  std::vector<TokenKind> Expected{
      TokenKind::KwIf,   TokenKind::Name,   TokenKind::Colon,
      TokenKind::Newline, TokenKind::Indent, TokenKind::Name,
      TokenKind::Equal,  TokenKind::Number, TokenKind::Newline,
      TokenKind::Dedent, TokenKind::Name,   TokenKind::Equal,
      TokenKind::Number, TokenKind::Newline};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, NestedIndentationClosesAtEof) {
  auto Kinds = kindsOf("def f():\n  if x:\n    return 1");
  // Two DEDENTs must be emitted before EOF.
  int Dedents = 0;
  for (TokenKind K : Kinds)
    Dedents += K == TokenKind::Dedent;
  EXPECT_EQ(Dedents, 2);
  // A synthetic newline terminates the final line.
  EXPECT_EQ(Kinds[Kinds.size() - 3], TokenKind::Newline);
}

TEST(LexerTest, BlankAndCommentLinesIgnored) {
  auto Kinds = kindsOf("x = 1\n\n# comment\n   \ny = 2\n");
  std::vector<TokenKind> Expected{TokenKind::Name,   TokenKind::Equal,
                                  TokenKind::Number, TokenKind::Newline,
                                  TokenKind::Name,   TokenKind::Equal,
                                  TokenKind::Number, TokenKind::Newline};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, TrailingCommentOnCodeLine) {
  auto Kinds = kindsOf("x = 1  # set x\n");
  std::vector<TokenKind> Expected{TokenKind::Name, TokenKind::Equal,
                                  TokenKind::Number, TokenKind::Newline};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, ImplicitLineJoinInsideBrackets) {
  auto Kinds = kindsOf("f(a,\n  b)\n");
  std::vector<TokenKind> Expected{
      TokenKind::Name,  TokenKind::LParen, TokenKind::Name, TokenKind::Comma,
      TokenKind::Name, TokenKind::RParen, TokenKind::Newline};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, ExplicitLineJoin) {
  auto Kinds = kindsOf("x = 1 + \\\n    2\n");
  std::vector<TokenKind> Expected{TokenKind::Name,   TokenKind::Equal,
                                  TokenKind::Number, TokenKind::Plus,
                                  TokenKind::Number, TokenKind::Newline};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, BackslashCrlfJoinsLines) {
  Lexer L("x = a + \\\r\n    b\r\n");
  auto Tokens = L.lexAll();
  EXPECT_TRUE(L.errors().empty());
  std::vector<TokenKind> Kinds;
  for (const Token &T : Tokens)
    Kinds.push_back(T.Kind);
  std::vector<TokenKind> Expected{TokenKind::Name,    TokenKind::Equal,
                                  TokenKind::Name,    TokenKind::Plus,
                                  TokenKind::Name,    TokenKind::Newline,
                                  TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
  EXPECT_EQ(Tokens[4].Line, 2u);
  EXPECT_EQ(Tokens[4].Col, 5u);
}

TEST(LexerTest, BackslashCrlfContinuesSingleQuotedString) {
  // The CRLF form of 'abc\<newline>def': one literal, "abcdef".
  Lexer L("s = 'abc\\\r\ndef'\r\nt = 1\r\n");
  auto Tokens = L.lexAll();
  EXPECT_TRUE(L.errors().empty());
  ASSERT_EQ(Tokens.size(), 9u);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::String);
  EXPECT_EQ(decodedText(Tokens[2]), "abcdef");
  EXPECT_EQ(Tokens[4].Kind, TokenKind::Name);
  EXPECT_EQ(Tokens[4].Text, "t");
  EXPECT_EQ(Tokens[4].Line, 3u);
}

TEST(LexerTest, BackslashCrlfContinuesTripleQuotedString) {
  Lexer L("s = '''abc\\\r\ndef'''\r\n");
  auto Tokens = L.lexAll();
  EXPECT_TRUE(L.errors().empty());
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::String);
  EXPECT_EQ(decodedText(Tokens[2]), "abcdef");
  // The same value as the LF file's.
  Lexer Lf("s = '''abc\\\ndef'''\n");
  EXPECT_EQ(decodedText(Lf.lexAll()[2]), "abcdef");
}

TEST(LexerTest, NonAsciiIdentifierIsOneName) {
  // "café = os.environ.get('A'); os.system(café)", and a name that starts
  // with a non-ASCII letter ("λ").
  Lexer L("caf\xc3\xa9 = os.environ.get('A'); os.system(caf\xc3\xa9)\n"
          "\xce\xbb = 1\n");
  auto Tokens = L.lexAll();
  EXPECT_TRUE(L.errors().empty());
  std::vector<std::string> Names;
  for (const Token &T : Tokens) {
    EXPECT_FALSE(T.is(TokenKind::Error));
    if (T.is(TokenKind::Name))
      Names.push_back(std::string(T.Text));
  }
  std::vector<std::string> Expected{"caf\xc3\xa9", "os",    "environ",
                                    "get",          "os",    "system",
                                    "caf\xc3\xa9", "\xce\xbb"};
  EXPECT_EQ(Names, Expected);
}

TEST(LexerTest, StringEscapes) {
  auto Tokens = lex("s = 'a\\nb\\'c'\n");
  ASSERT_GE(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::String);
  EXPECT_EQ(decodedText(Tokens[2]), "a\nb'c");
}

TEST(LexerTest, RawStringKeepsBackslash) {
  auto Tokens = lex("s = r'a\\nb'\n");
  EXPECT_EQ(decodedText(Tokens[2]), "a\\nb");
}

TEST(LexerTest, RawStringKeepsEscapedQuote) {
  // In a raw string a backslash keeps the next character (a quote
  // included) inside the literal, and both stay in the body.
  const std::pair<const char *, const char *> Cases[] = {
      {"r'\\''", "\\'"},   {"r\"\\\"\"", "\\\""}, {"rb'\\''", "\\'"},
      {"R'a\\'b'", "a\\'b"}, {"r'\\\\'", "\\\\"},
  };
  for (const auto &[Literal, Body] : Cases) {
    SCOPED_TRACE(Literal);
    std::string Source = std::string("x = ") + Literal + "\ny = 1\n";
    Lexer L(Source);
    std::vector<Token> Tokens = L.lexAll();
    EXPECT_TRUE(L.errors().empty());
    size_t Strings = 0;
    for (const Token &T : Tokens)
      Strings += T.is(TokenKind::String);
    EXPECT_EQ(Strings, 1u);
    ASSERT_GE(Tokens.size(), 8u);
    EXPECT_EQ(Tokens[2].Kind, TokenKind::String);
    EXPECT_EQ(Tokens[2].Text, Body);
    EXPECT_FALSE(Tokens[2].NeedsDecode);
    EXPECT_EQ(Tokens[3].Kind, TokenKind::Newline);
    EXPECT_EQ(Tokens[4].Text, "y");
  }
}

TEST(LexerTest, TripleQuotedString) {
  auto Tokens = lex("s = \"\"\"line1\nline2\"\"\"\n");
  EXPECT_EQ(Tokens[2].Kind, TokenKind::String);
  EXPECT_EQ(decodedText(Tokens[2]), "line1\nline2");
}

TEST(LexerTest, FStringLexedAsString) {
  auto Tokens = lex("s = f'hello {name}'\n");
  EXPECT_EQ(Tokens[2].Kind, TokenKind::String);
  EXPECT_EQ(decodedText(Tokens[2]), "hello {name}");
}

TEST(LexerTest, UnterminatedStringIsError) {
  Lexer L("s = 'oops\n");
  L.lexAll();
  EXPECT_FALSE(L.errors().empty());
}

TEST(LexerTest, Numbers) {
  auto Tokens = lex("a = 10_000\nb = 3.14\nc = 1e-5\nd = 0xFF\ne = .5\n");
  std::vector<std::string> Expected{"10_000", "3.14", "1e-5", "0xFF", ".5"};
  std::vector<std::string> Got;
  for (const Token &T : Tokens)
    if (T.is(TokenKind::Number))
      Got.push_back(std::string(T.Text));
  EXPECT_EQ(Got, Expected);
}

TEST(LexerTest, NumberDotAttributeNotFloat) {
  // `x[0].attr` — the dot binds to the attribute, not the number... but
  // `0 .attr` is rare; what matters is `d[0].save()` lexes correctly.
  auto Kinds = kindsOf("d[0].save()\n");
  std::vector<TokenKind> Expected{
      TokenKind::Name,   TokenKind::LBracket, TokenKind::Number,
      TokenKind::RBracket, TokenKind::Dot,    TokenKind::Name,
      TokenKind::LParen, TokenKind::RParen,   TokenKind::Newline};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, MultiCharOperators) {
  auto Kinds = kindsOf("a **= b // c != d -> e := f\n");
  std::vector<TokenKind> Expected{
      TokenKind::Name, TokenKind::DoubleStarEq, TokenKind::Name,
      TokenKind::DoubleSlash, TokenKind::Name, TokenKind::NotEq,
      TokenKind::Name, TokenKind::Arrow, TokenKind::Name,
      TokenKind::Walrus, TokenKind::Name, TokenKind::Newline};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, LineAndColumnTracking) {
  auto Tokens = lex("x = 1\ny = 2\n");
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[0].Col, 1u);
  // Token for `y`.
  EXPECT_EQ(Tokens[4].Line, 2u);
  EXPECT_EQ(Tokens[4].Col, 1u);
  // Token for `2`.
  EXPECT_EQ(Tokens[6].Col, 5u);
}

TEST(LexerTest, InconsistentDedentReported) {
  Lexer L("if x:\n        a = 1\n    b = 2\n");
  L.lexAll();
  EXPECT_FALSE(L.errors().empty());
}

TEST(LexerTest, BadCharacterReported) {
  Lexer L("a = 1 $ 2\n");
  auto Tokens = L.lexAll();
  EXPECT_FALSE(L.errors().empty());
  bool SawError = false;
  for (const Token &T : Tokens)
    SawError |= T.is(TokenKind::Error);
  EXPECT_TRUE(SawError);
}

TEST(LexerTest, TabsIndentToMultipleOfEight) {
  // A tab and 8 spaces must land on the same indentation level.
  auto Kinds = kindsOf("if x:\n\ty = 1\n        z = 2\n");
  int Indents = 0, Dedents = 0;
  for (TokenKind K : Kinds) {
    Indents += K == TokenKind::Indent;
    Dedents += K == TokenKind::Dedent;
  }
  EXPECT_EQ(Indents, 1);
  EXPECT_EQ(Dedents, 1);
}

TEST(LexerTest, RealWorldSnippet) {
  // The paper's Fig. 2a snippet must lex without errors.
  const char *Source =
      "from yak.web import app\n"
      "from flask import request\n"
      "from werkzeug import secure_filename\n"
      "import os\n"
      "\n"
      "blog_dir = app.config['PATH']\n"
      "\n"
      "@app.route('/media/', methods=['POST'])\n"
      "def media():\n"
      "    filename = request.files['f'].filename\n"
      "    filename = secure_filename(filename)\n"
      "    path = os.path.join(blog_dir, filename)\n"
      "    if not os.path.exists(path):\n"
      "        request.files['f'].save(path)\n";
  Lexer L(Source);
  auto Tokens = L.lexAll();
  EXPECT_TRUE(L.errors().empty());
  EXPECT_GT(Tokens.size(), 50u);
}

} // namespace
