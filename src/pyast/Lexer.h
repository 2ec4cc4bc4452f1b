//===- pyast/Lexer.h - Indentation-aware Python lexer ------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An indentation-aware lexer for the Python subset analyzed by Seldon.
///
/// Notable behaviours, matching CPython's tokenizer:
///  * INDENT/DEDENT tokens are synthesized from leading whitespace at
///    logical line starts; a tab advances the column to the next multiple
///    of 8.
///  * Newlines inside (), [] and {} are implicit line joins and produce no
///    NEWLINE token; `\` at end of line (LF or CRLF) joins explicitly.
///  * Bytes >= 0x80 are identifier bytes, so a UTF-8 name is one token.
///  * Blank lines and comment-only lines produce no tokens.
///  * String prefixes (r, b, u, f, and combinations) are accepted; a string
///    token carries its raw body, and the parser decodes escapes and
///    parses f-string interpolations out of it.
///  * Triple-quoted strings are supported (docstrings).
///  * A token's column counts bytes from its line's start.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PYAST_LEXER_H
#define SELDON_PYAST_LEXER_H

#include "pyast/Token.h"

#include <string>
#include <string_view>
#include <vector>

namespace seldon {
namespace pyast {

/// A lexer diagnostic (bad character, bad indentation, unterminated string).
struct LexError {
  uint32_t Line = 0;
  uint32_t Col = 0;
  std::string Message;
};

/// Tokenizes a whole buffer in one pass. Tokens are views into the
/// buffer, so it must outlive them (and every AST built from them).
class Lexer {
public:
  explicit Lexer(std::string_view Source);

  /// Lexes the entire input. The returned stream always ends with
  /// outstanding DEDENTs followed by a single EndOfFile token.
  std::vector<Token> lexAll();

  /// As lexAll(), but into \p Out, replacing its contents and keeping its
  /// capacity.
  void lexAll(std::vector<Token> &Out);

  /// Diagnostics produced while lexing (valid after lexAll()).
  const std::vector<LexError> &errors() const { return Errors; }

private:
  bool handleIndentation(std::vector<Token> &Out);
  void lexNumber(std::vector<Token> &Out);
  void lexString(std::vector<Token> &Out, std::string_view Prefix);
  void lexOperator(std::vector<Token> &Out);

  /// The byte \p Ahead past the cursor, or NUL past the end.
  char peek(size_t Ahead = 0) const {
    return Ahead < static_cast<size_t>(End - Cur) ? Cur[Ahead] : '\0';
  }
  bool atEnd() const { return Cur == End; }
  /// Steps over the newline under the cursor, starting a new line.
  void newline() {
    ++Cur;
    ++Line;
    LineStart = Cur;
  }
  /// Marks the cursor as the start of the next token.
  void startToken() {
    TokLine = Line;
    TokCol = static_cast<uint32_t>(Cur - LineStart) + 1;
  }
  void error(std::string Message);
  void push(std::vector<Token> &Out, TokenKind Kind, const char *Begin) const {
    Out.push_back({std::string_view(Begin, static_cast<size_t>(Cur - Begin)),
                   TokLine, TokCol, Kind});
  }

  // Indentation widths of the open blocks, innermost last; the outermost
  // level, 0, is implied, so a lexer that opens no block (an f-string
  // field's) allocates nothing here.
  int indentTop() const { return Indents.empty() ? 0 : Indents.back(); }
  void pushIndent(int Width);

  const char *Cur;
  const char *End;
  const char *LineStart;
  uint32_t Line = 1;
  uint32_t TokLine = 1;
  uint32_t TokCol = 1;
  int BracketDepth = 0;
  std::vector<int> Indents;
  std::vector<LexError> Errors;
};

} // namespace pyast
} // namespace seldon

#endif // SELDON_PYAST_LEXER_H
