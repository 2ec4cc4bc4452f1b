//===- pyast/Token.h - Python token definitions ------------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds and the Token value type produced by the Python lexer.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PYAST_TOKEN_H
#define SELDON_PYAST_TOKEN_H

#include <cstdint>
#include <string>
#include <string_view>

namespace seldon {
namespace pyast {

/// Kinds of tokens in the supported Python subset.
enum class TokenKind : uint8_t {
  // Structure.
  EndOfFile,
  Newline,
  Indent,
  Dedent,

  // Literals and identifiers.
  Name,
  Number,
  String,

  // Keywords.
  KwAnd,
  KwAs,
  KwAssert,
  KwBreak,
  KwClass,
  KwContinue,
  KwDef,
  KwDel,
  KwElif,
  KwElse,
  KwExcept,
  KwFalse,
  KwFinally,
  KwFor,
  KwFrom,
  KwGlobal,
  KwIf,
  KwImport,
  KwIn,
  KwIs,
  KwLambda,
  KwNone,
  KwNonlocal,
  KwNot,
  KwOr,
  KwPass,
  KwRaise,
  KwReturn,
  KwTrue,
  KwTry,
  KwWhile,
  KwWith,
  KwYield,

  // Punctuation and operators.
  LParen,
  RParen,
  LBracket,
  RBracket,
  LBrace,
  RBrace,
  Comma,
  Colon,
  Semicolon,
  Dot,
  Arrow,      // ->
  At,         // @ (decorator or matmul)
  Equal,      // =
  Walrus,     // :=
  Plus,
  Minus,
  Star,
  DoubleStar,
  Slash,
  DoubleSlash,
  Percent,
  Amp,
  Pipe,
  Caret,
  Tilde,
  LShift,
  RShift,
  EqEq,
  NotEq,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  PlusEq,
  MinusEq,
  StarEq,
  SlashEq,
  DoubleSlashEq,
  PercentEq,
  DoubleStarEq,
  AmpEq,
  PipeEq,
  CaretEq,
  LShiftEq,
  RShiftEq,
  AtEq,

  // Lexer error (bad character, unterminated string, inconsistent dedent).
  Error,
};

/// Returns a stable human-readable name for \p Kind (used in diagnostics
/// and the lexer tests).
const char *tokenKindName(TokenKind Kind);

/// If \p Ident is a Python keyword in our subset, returns its TokenKind;
/// otherwise returns TokenKind::Name.
TokenKind classifyIdentifier(std::string_view Ident);

/// A single lexed token: its kind, its position, and \c Text, a view into
/// the lexed text. \c Text is the spelling of a name, keyword, number or
/// operator, the offending byte of an Error, and empty for the layout
/// tokens. For a string literal it is the raw body: the bytes between the
/// quotes, prefix and quotes stripped, escapes not yet decoded (see
/// decodedText()). A token never owns memory; it is valid while the text
/// it was lexed from is.
struct Token {
  std::string_view Text;
  uint32_t Line = 0; ///< 1-based line number.
  uint32_t Col = 0;  ///< 1-based column number.
  TokenKind Kind = TokenKind::EndOfFile;
  /// True for string literals lexed from an f-string prefix; the parser
  /// then parses `{...}` interpolations out of the decoded text.
  bool IsFString = false;
  /// True for a string whose body needs decoding: a non-raw body that
  /// holds a backslash. Otherwise the body is the literal's value.
  bool NeedsDecode = false;

  bool is(TokenKind K) const { return Kind == K; }
  bool isNot(TokenKind K) const { return Kind != K; }
};

/// Writes the value of the non-raw string body \p Body to \p Out, which
/// has room for Body.size() bytes, and returns the end of what it wrote.
/// `\n`, `\t`, `\r`, `\\`, `\'` and `\"` decode to their character, `\0` to
/// a NUL byte, a backslash before a newline (LF or CRLF) vanishes, and any
/// other escape keeps its backslash, as does a backslash that ends the body.
char *decodeBody(std::string_view Body, char *Out);

/// The value of string token \p T (its body, decoded if it needs it), or
/// the spelling of any other token.
std::string decodedText(const Token &T);

} // namespace pyast
} // namespace seldon

#endif // SELDON_PYAST_TOKEN_H
