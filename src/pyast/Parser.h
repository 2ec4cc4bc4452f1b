//===- pyast/Parser.h - Recursive-descent Python parser ----------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A recursive-descent parser for the Python subset used by the propagation
/// graph builder. Produces an AST allocated in a caller-provided AstContext.
///
/// The AST's names and literals are views into the text the tokens were
/// lexed from, so that text must outlive the AST. parseSource() meets this
/// by copying the text into the context first; a caller that lexes its
/// own text and hands the tokens to a Parser must keep the text alive
/// while it uses the AST.
///
/// On syntax errors the parser records a diagnostic, skips to the end of the
/// current logical line, and continues, so one malformed statement does not
/// discard a whole file (important when analyzing big code).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PYAST_PARSER_H
#define SELDON_PYAST_PARSER_H

#include "pyast/Ast.h"
#include "pyast/Token.h"

#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace seldon {
namespace pyast {

/// A parser diagnostic.
struct ParseError {
  uint32_t Line = 0;
  uint32_t Col = 0;
  std::string Message;
};

/// Parses a token stream (as produced by Lexer::lexAll) into a ModuleNode.
class Parser {
public:
  /// Parses \p Tokens, whose text must outlive the AST (see the file
  /// comment).
  Parser(AstContext &Ctx, std::vector<Token> Tokens);

  /// Parses the whole token stream. Never returns null; a file that fails
  /// to parse entirely yields an empty module plus diagnostics.
  ModuleNode *parseModule();

  /// Diagnostics recorded during parsing.
  const std::vector<ParseError> &errors() const { return Errors; }

private:
  template <typename T> class ListBuilder;

  // Token-stream helpers.
  const Token &peek(size_t Ahead = 0) const;
  const Token &current() const { return Tokens[Pos]; }
  const Token &advance();
  bool check(TokenKind Kind) const { return current().is(Kind); }
  bool accept(TokenKind Kind);
  bool expect(TokenKind Kind, const char *Context);
  void errorHere(std::string Message);
  void synchronizeToLineEnd();
  SourceLoc locHere() const;
  /// True if the current token is `async` read as a keyword: a name right
  /// before `def`, `for` or `with`. Elsewhere `async` is a name.
  bool atAsync() const;
  /// The current token's kind, or the kind of the token after a keyword
  /// `async`: `async def`, `async for` and `async with` parse as their
  /// plain forms, located at the `async`.
  TokenKind kindPastAsync() const;

  // Statements.
  std::span<Stmt *> parseStatementsUntil(TokenKind Terminator);
  Stmt *parseStatement();
  void parseSimpleStatementLine(ListBuilder<Stmt *> &Out);
  Stmt *parseSmallStatement();
  Stmt *parseExprLikeStatement();
  std::span<Stmt *> parseBlock();
  Stmt *parseFunctionDef(std::span<Expr *> Decorators);
  Stmt *parseClassDef(std::span<Expr *> Decorators);
  Stmt *parseDecorated();
  Stmt *parseIf();
  Stmt *parseWhile();
  Stmt *parseFor();
  Stmt *parseWith();
  Stmt *parseTry();
  Stmt *parseImport();
  Stmt *parseImportFrom();
  std::string_view parseDottedName();
  std::span<Param> parseParamList(TokenKind Terminator);

  // Expressions (precedence-ordered).
  Expr *parseTargetList();
  Expr *parseExprOrTupleNoAssign();
  Expr *parseStarOrTest();
  Expr *parseTest();
  Expr *parseLambda();
  Expr *parseOrTest();
  Expr *parseAndTest();
  Expr *parseNotTest();
  Expr *parseComparison();
  Expr *parseBinary(int MinPrec);
  Expr *parseFactor();
  Expr *parsePower();
  Expr *parseAtomWithTrailers();
  Expr *parseAtom();
  Expr *parseStrings();
  Expr *parseSubscriptIndex();
  Expr *parseCall(SourceLoc Loc, Expr *Callee);
  Expr *parseComprehension(SourceLoc Loc, Expr *Key, Expr *Element,
                           const char *InContext);
  template <typename ItemFn>
  std::span<Expr *> parseCommaList(Expr *First, ItemFn ParseItem,
                                   std::initializer_list<TokenKind> Stops);
  void parseFStringInterpolations(std::string_view Text, SourceLoc Loc,
                                  ListBuilder<Expr *> &Out);

  AstContext &Ctx;
  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::vector<ParseError> Errors;
  /// The tokens of the f-string field being parsed, kept across fields so
  /// their capacity is reused.
  std::vector<Token> FieldTokens;

  /// Recursion-depth ceiling for the descent (statements and expressions
  /// share it). Pathologically nested input — e.g. ten thousand opening
  /// parentheses — would otherwise overflow the native stack; at the limit
  /// the parser emits a ParseError, resynchronizes to the end of the
  /// logical line, and substitutes a placeholder node, exactly like any
  /// other recovered syntax error.
  static constexpr int MaxNestingDepth = 256;
  int Depth = 0;
};

/// Convenience: lex and parse \p Source into \p Ctx, appending any lexer and
/// parser diagnostics to \p ErrorsOut (may be null to ignore). The text is
/// copied into \p Ctx first, so the AST does not depend on \p Source
/// staying alive. When the global metrics registry is enabled, the lex and
/// the parse are timed apart into lex.file_seconds and parse.file_seconds.
ModuleNode *parseSource(AstContext &Ctx, std::string_view Source,
                        std::vector<ParseError> *ErrorsOut = nullptr);

} // namespace pyast
} // namespace seldon

#endif // SELDON_PYAST_PARSER_H
