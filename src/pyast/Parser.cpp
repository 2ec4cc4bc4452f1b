//===- pyast/Parser.cpp - Recursive-descent Python parser -----------------===//

#include "pyast/Parser.h"

#include "pyast/Lexer.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace seldon;
using namespace seldon::pyast;

/// A list under construction, grown in the arena: when full it moves to an
/// arena buffer twice its size (the old buffer is left to the arena), so
/// building a list allocates no heap memory, and finish() hands out the
/// buffer itself.
template <typename T> class Parser::ListBuilder {
  static_assert(std::is_trivially_copyable_v<T>,
                "the arena never runs an element's destructor");

public:
  explicit ListBuilder(AstContext &Ctx) : Ctx(Ctx) {}

  void push_back(const T &Item) {
    if (Size == Capacity)
      grow();
    Data[Size++] = Item;
  }
  void pop_back() { --Size; }
  bool empty() const { return Size == 0; }
  size_t size() const { return Size; }
  T &front() { return Data[0]; }
  T &back() { return Data[Size - 1]; }
  std::span<T> finish() const { return {Data, Size}; }

private:
  void grow() {
    size_t NewCapacity = Capacity ? Capacity * 2 : 1;
    T *NewData = static_cast<T *>(
        Ctx.allocate(NewCapacity * sizeof(T), alignof(T)));
    if (Size)
      std::memcpy(NewData, Data, Size * sizeof(T));
    Data = NewData;
    Capacity = NewCapacity;
  }

  AstContext &Ctx;
  T *Data = nullptr;
  size_t Size = 0;
  size_t Capacity = 0;
};

Parser::Parser(AstContext &Ctx, std::vector<Token> Tokens)
    : Ctx(Ctx), Tokens(std::move(Tokens)) {
  assert(!this->Tokens.empty() &&
         this->Tokens.back().is(TokenKind::EndOfFile) &&
         "token stream must end with EndOfFile");
}

const Token &Parser::peek(size_t Ahead) const {
  size_t Idx = Pos + Ahead;
  if (Idx >= Tokens.size())
    Idx = Tokens.size() - 1; // EndOfFile.
  return Tokens[Idx];
}

const Token &Parser::advance() {
  const Token &Tok = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return Tok;
}

bool Parser::accept(TokenKind Kind) {
  if (!check(Kind))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (accept(Kind))
    return true;
  errorHere(std::string("expected '") + tokenKindName(Kind) + "' " + Context +
            ", found '" + tokenKindName(current().Kind) + "'");
  return false;
}

void Parser::errorHere(std::string Message) {
  Errors.push_back({current().Line, current().Col, std::move(Message)});
}

void Parser::synchronizeToLineEnd() {
  while (!check(TokenKind::EndOfFile) && !check(TokenKind::Newline) &&
         !check(TokenKind::Dedent))
    advance();
  accept(TokenKind::Newline);
}

SourceLoc Parser::locHere() const { return {current().Line, current().Col}; }

bool Parser::atAsync() const {
  if (!check(TokenKind::Name) || current().Text != "async")
    return false;
  TokenKind Next = peek(1).Kind;
  return Next == TokenKind::KwDef || Next == TokenKind::KwFor ||
         Next == TokenKind::KwWith;
}

TokenKind Parser::kindPastAsync() const {
  return atAsync() ? peek(1).Kind : current().Kind;
}

namespace {

/// RAII recursion counter for the descent; paired with the MaxNestingDepth
/// checks in parseStatement/parseAtom, the two funnels every statement and
/// expression recursion passes through.
struct DepthScope {
  explicit DepthScope(int &Depth) : Depth(Depth) { ++Depth; }
  ~DepthScope() { --Depth; }
  int &Depth;
};

/// The operator of augmented-assignment token \p Kind, if it is one.
bool augmentedOp(TokenKind Kind, BinaryOp &Op) {
  switch (Kind) {
  case TokenKind::PlusEq: Op = BinaryOp::Add; return true;
  case TokenKind::MinusEq: Op = BinaryOp::Sub; return true;
  case TokenKind::StarEq: Op = BinaryOp::Mul; return true;
  case TokenKind::SlashEq: Op = BinaryOp::Div; return true;
  case TokenKind::DoubleSlashEq: Op = BinaryOp::FloorDiv; return true;
  case TokenKind::PercentEq: Op = BinaryOp::Mod; return true;
  case TokenKind::DoubleStarEq: Op = BinaryOp::Pow; return true;
  case TokenKind::AmpEq: Op = BinaryOp::BitAnd; return true;
  case TokenKind::PipeEq: Op = BinaryOp::BitOr; return true;
  case TokenKind::CaretEq: Op = BinaryOp::BitXor; return true;
  case TokenKind::LShiftEq: Op = BinaryOp::LShift; return true;
  case TokenKind::RShiftEq: Op = BinaryOp::RShift; return true;
  case TokenKind::AtEq: Op = BinaryOp::MatMul; return true;
  default: return false;
  }
}

/// True if a token of kind \p Kind can start a primary: an atom, which
/// trailers may follow.
bool startsPrimary(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Name:
  case TokenKind::Number:
  case TokenKind::String:
  case TokenKind::KwTrue:
  case TokenKind::KwFalse:
  case TokenKind::KwNone:
  case TokenKind::LParen:
  case TokenKind::LBracket:
  case TokenKind::LBrace:
    return true;
  default:
    return false;
  }
}

/// The precedence of binary operator token \p Kind, from `|` (1) up to the
/// multiplicative operators (6), with its operator in \p Op; 0 if \p Kind
/// is not one. `**` binds tighter than unary minus and has its own rule.
int binaryPrecedence(TokenKind Kind, BinaryOp &Op) {
  switch (Kind) {
  case TokenKind::Pipe: Op = BinaryOp::BitOr; return 1;
  case TokenKind::Caret: Op = BinaryOp::BitXor; return 2;
  case TokenKind::Amp: Op = BinaryOp::BitAnd; return 3;
  case TokenKind::LShift: Op = BinaryOp::LShift; return 4;
  case TokenKind::RShift: Op = BinaryOp::RShift; return 4;
  case TokenKind::Plus: Op = BinaryOp::Add; return 5;
  case TokenKind::Minus: Op = BinaryOp::Sub; return 5;
  case TokenKind::Star: Op = BinaryOp::Mul; return 6;
  case TokenKind::Slash: Op = BinaryOp::Div; return 6;
  case TokenKind::DoubleSlash: Op = BinaryOp::FloorDiv; return 6;
  case TokenKind::Percent: Op = BinaryOp::Mod; return 6;
  case TokenKind::At: Op = BinaryOp::MatMul; return 6;
  default: return 0;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

ModuleNode *Parser::parseModule() {
  SourceLoc Loc{1, 1};
  std::span<Stmt *> Body = parseStatementsUntil(TokenKind::EndOfFile);
  return Ctx.create<ModuleNode>(Loc, Body);
}

std::span<Stmt *> Parser::parseStatementsUntil(TokenKind Terminator) {
  ListBuilder<Stmt *> Out(Ctx);
  while (!check(Terminator) && !check(TokenKind::EndOfFile)) {
    if (accept(TokenKind::Newline))
      continue;
    if (check(TokenKind::Indent)) {
      errorHere("unexpected indent");
      advance();
      continue;
    }
    if (check(TokenKind::Dedent) && Terminator != TokenKind::Dedent) {
      errorHere("unexpected dedent");
      advance();
      continue;
    }
    size_t Before = Pos;
    if (Stmt *S = parseStatement())
      Out.push_back(S);
    if (Pos == Before)
      advance(); // Guarantee progress even on a parse failure.
  }
  return Out.finish();
}

Stmt *Parser::parseStatement() {
  if (Depth >= MaxNestingDepth) {
    errorHere("statement nesting too deep");
    synchronizeToLineEnd();
    return nullptr;
  }
  DepthScope Scope(Depth);
  switch (kindPastAsync()) {
  case TokenKind::KwDef:
    return parseFunctionDef({});
  case TokenKind::KwClass:
    return parseClassDef({});
  case TokenKind::At:
    return parseDecorated();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwWith:
    return parseWith();
  case TokenKind::KwTry:
    return parseTry();
  default: {
    ListBuilder<Stmt *> Line(Ctx);
    parseSimpleStatementLine(Line);
    if (Line.size() == 1)
      return Line.front();
    if (Line.empty())
      return nullptr;
    // A `a; b; c` line yields several statements where the caller expects
    // one; wrap them in an always-taken If so execution order is preserved.
    SourceLoc Loc = Line.front()->loc();
    Expr *True = Ctx.create<BoolExpr>(Loc, true);
    return Ctx.create<IfStmt>(Loc, True, Line.finish(), std::span<Stmt *>());
  }
  }
}

void Parser::parseSimpleStatementLine(ListBuilder<Stmt *> &Out) {
  for (;;) {
    if (Stmt *S = parseSmallStatement())
      Out.push_back(S);
    if (accept(TokenKind::Semicolon)) {
      if (check(TokenKind::Newline) || check(TokenKind::EndOfFile)) {
        accept(TokenKind::Newline);
        return;
      }
      continue;
    }
    if (!accept(TokenKind::Newline) && !check(TokenKind::EndOfFile) &&
        !check(TokenKind::Dedent)) {
      errorHere(std::string("unexpected token '") +
                tokenKindName(current().Kind) + "' at end of statement");
      synchronizeToLineEnd();
    }
    return;
  }
}

Stmt *Parser::parseSmallStatement() {
  SourceLoc Loc = locHere();
  switch (current().Kind) {
  case TokenKind::KwPass:
    advance();
    return Ctx.create<PassStmt>(Loc);
  case TokenKind::KwBreak:
    advance();
    return Ctx.create<BreakStmt>(Loc);
  case TokenKind::KwContinue:
    advance();
    return Ctx.create<ContinueStmt>(Loc);
  case TokenKind::KwReturn: {
    advance();
    Expr *Value = nullptr;
    if (!check(TokenKind::Newline) && !check(TokenKind::Semicolon) &&
        !check(TokenKind::EndOfFile) && !check(TokenKind::Dedent))
      Value = parseExprOrTupleNoAssign();
    return Ctx.create<ReturnStmt>(Loc, Value);
  }
  case TokenKind::KwRaise: {
    advance();
    Expr *Exc = nullptr, *Cause = nullptr;
    if (!check(TokenKind::Newline) && !check(TokenKind::Semicolon) &&
        !check(TokenKind::EndOfFile) && !check(TokenKind::Dedent)) {
      Exc = parseTest();
      if (accept(TokenKind::KwFrom))
        Cause = parseTest();
    }
    return Ctx.create<RaiseStmt>(Loc, Exc, Cause);
  }
  case TokenKind::KwImport:
    return parseImport();
  case TokenKind::KwFrom:
    return parseImportFrom();
  case TokenKind::KwGlobal:
  case TokenKind::KwNonlocal: {
    advance();
    ListBuilder<std::string_view> Names(Ctx);
    do {
      if (check(TokenKind::Name))
        Names.push_back(advance().Text);
      else
        errorHere("expected identifier in global/nonlocal statement");
    } while (accept(TokenKind::Comma));
    return Ctx.create<GlobalStmt>(Loc, Names.finish());
  }
  case TokenKind::KwDel: {
    advance();
    ListBuilder<Expr *> Targets(Ctx);
    do {
      Targets.push_back(parseTest());
    } while (accept(TokenKind::Comma));
    return Ctx.create<DeleteStmt>(Loc, Targets.finish());
  }
  case TokenKind::KwAssert: {
    advance();
    Expr *Test = parseTest();
    Expr *Msg = nullptr;
    if (accept(TokenKind::Comma))
      Msg = parseTest();
    return Ctx.create<AssertStmt>(Loc, Test, Msg);
  }
  default:
    return parseExprLikeStatement();
  }
}

Stmt *Parser::parseExprLikeStatement() {
  SourceLoc Loc = locHere();
  Expr *First = parseExprOrTupleNoAssign();
  if (!First) {
    synchronizeToLineEnd();
    return nullptr;
  }

  // Annotated assignment: `target: type [= value]`.
  if (accept(TokenKind::Colon)) {
    Expr *Annotation = parseTest();
    Expr *Value = nullptr;
    if (accept(TokenKind::Equal))
      Value = parseExprOrTupleNoAssign();
    return Ctx.create<AnnAssignStmt>(Loc, First, Annotation, Value);
  }

  // Augmented assignment.
  BinaryOp Op;
  if (augmentedOp(current().Kind, Op)) {
    advance();
    Expr *Value = parseExprOrTupleNoAssign();
    return Ctx.create<AugAssignStmt>(Loc, First, Op, Value);
  }

  // Chained assignment `a = b = value`.
  if (check(TokenKind::Equal)) {
    ListBuilder<Expr *> Chain(Ctx);
    Chain.push_back(First);
    while (accept(TokenKind::Equal))
      Chain.push_back(parseExprOrTupleNoAssign());
    Expr *Value = Chain.back();
    Chain.pop_back();
    return Ctx.create<AssignStmt>(Loc, Chain.finish(), Value);
  }

  return Ctx.create<ExprStmt>(Loc, First);
}

std::span<Stmt *> Parser::parseBlock() {
  expect(TokenKind::Colon, "to introduce a block");
  if (accept(TokenKind::Newline)) {
    if (!expect(TokenKind::Indent, "to start an indented block"))
      return {};
    std::span<Stmt *> Body = parseStatementsUntil(TokenKind::Dedent);
    expect(TokenKind::Dedent, "to end an indented block");
    return Body;
  }
  // Inline suite: `if x: do(); done()`.
  ListBuilder<Stmt *> Body(Ctx);
  parseSimpleStatementLine(Body);
  return Body.finish();
}

Stmt *Parser::parseFunctionDef(std::span<Expr *> Decorators) {
  SourceLoc Loc = locHere();
  if (atAsync())
    advance();
  expect(TokenKind::KwDef, "to start a function definition");
  std::string_view Name;
  if (check(TokenKind::Name))
    Name = advance().Text;
  else
    errorHere("expected function name after 'def'");
  expect(TokenKind::LParen, "after function name");
  std::span<Param> Params = parseParamList(TokenKind::RParen);
  expect(TokenKind::RParen, "after parameter list");
  Expr *ReturnAnnotation = nullptr;
  if (accept(TokenKind::Arrow))
    ReturnAnnotation = parseTest();
  std::span<Stmt *> Body = parseBlock();
  return Ctx.create<FunctionDefStmt>(Loc, Name, Params, Body, Decorators,
                                     ReturnAnnotation);
}

Stmt *Parser::parseClassDef(std::span<Expr *> Decorators) {
  SourceLoc Loc = locHere();
  expect(TokenKind::KwClass, "to start a class definition");
  std::string_view Name;
  if (check(TokenKind::Name))
    Name = advance().Text;
  else
    errorHere("expected class name after 'class'");
  ListBuilder<Expr *> Bases(Ctx);
  if (accept(TokenKind::LParen)) {
    if (!check(TokenKind::RParen)) {
      do {
        // Skip metaclass= and other keyword arguments in the base list.
        if (check(TokenKind::Name) && peek(1).is(TokenKind::Equal)) {
          advance();
          advance();
          parseTest();
          continue;
        }
        Bases.push_back(parseTest());
      } while (accept(TokenKind::Comma) && !check(TokenKind::RParen));
    }
    expect(TokenKind::RParen, "after base class list");
  }
  std::span<Stmt *> Body = parseBlock();
  return Ctx.create<ClassDefStmt>(Loc, Name, Bases.finish(), Body,
                                  Decorators);
}

Stmt *Parser::parseDecorated() {
  ListBuilder<Expr *> Decorators(Ctx);
  while (check(TokenKind::At)) {
    advance();
    Decorators.push_back(parseAtomWithTrailers());
    accept(TokenKind::Newline);
  }
  if (kindPastAsync() == TokenKind::KwDef)
    return parseFunctionDef(Decorators.finish());
  if (check(TokenKind::KwClass))
    return parseClassDef(Decorators.finish());
  errorHere("expected 'def' or 'class' after decorators");
  synchronizeToLineEnd();
  return nullptr;
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = locHere();
  advance(); // if / elif
  Expr *Cond = parseTest();
  std::span<Stmt *> Then = parseBlock();
  std::span<Stmt *> Else;
  if (check(TokenKind::KwElif)) {
    Stmt *Nested = parseIf();
    Else = Ctx.copyArray(std::span<Stmt *const>(&Nested, 1));
  } else if (accept(TokenKind::KwElse)) {
    Else = parseBlock();
  }
  return Ctx.create<IfStmt>(Loc, Cond, Then, Else);
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = locHere();
  advance();
  Expr *Cond = parseTest();
  std::span<Stmt *> Body = parseBlock();
  std::span<Stmt *> Else;
  if (accept(TokenKind::KwElse))
    Else = parseBlock();
  return Ctx.create<WhileStmt>(Loc, Cond, Body, Else);
}

Stmt *Parser::parseFor() {
  SourceLoc Loc = locHere();
  if (atAsync())
    advance();
  advance();
  Expr *Target = parseTargetList();
  expect(TokenKind::KwIn, "in for statement");
  Expr *Iter = parseExprOrTupleNoAssign();
  std::span<Stmt *> Body = parseBlock();
  std::span<Stmt *> Else;
  if (accept(TokenKind::KwElse))
    Else = parseBlock();
  return Ctx.create<ForStmt>(Loc, Target, Iter, Body, Else);
}

Stmt *Parser::parseWith() {
  SourceLoc Loc = locHere();
  if (atAsync())
    advance();
  advance();
  ListBuilder<WithItem> Items(Ctx);
  do {
    WithItem Item;
    Item.ContextExpr = parseTest();
    if (accept(TokenKind::KwAs))
      Item.OptionalVars = parseAtomWithTrailers();
    Items.push_back(Item);
  } while (accept(TokenKind::Comma));
  std::span<Stmt *> Body = parseBlock();
  return Ctx.create<WithStmt>(Loc, Items.finish(), Body);
}

Stmt *Parser::parseTry() {
  SourceLoc Loc = locHere();
  advance();
  std::span<Stmt *> Body = parseBlock();
  ListBuilder<ExceptHandler> Handlers(Ctx);
  std::span<Stmt *> OrElse, Finally;
  while (check(TokenKind::KwExcept)) {
    advance();
    ExceptHandler Handler;
    if (!check(TokenKind::Colon)) {
      Handler.Type = parseTest();
      if (accept(TokenKind::KwAs) && check(TokenKind::Name))
        Handler.Name = advance().Text;
    }
    Handler.Body = parseBlock();
    Handlers.push_back(Handler);
  }
  if (accept(TokenKind::KwElse))
    OrElse = parseBlock();
  if (accept(TokenKind::KwFinally))
    Finally = parseBlock();
  if (Handlers.empty() && Finally.empty())
    errorHere("try statement must have an except or finally clause");
  return Ctx.create<TryStmt>(Loc, Body, Handlers.finish(), OrElse, Finally);
}

std::string_view Parser::parseDottedName() {
  // `a.b.c`: names joined by dots. When the source spells the name with
  // nothing between its parts, the result is a view of the source;
  // otherwise (`a . b`, a line join) the parts are joined in the arena.
  size_t First = Pos, Parts = 0, Joined = 0;
  while (check(TokenKind::Name)) {
    Joined += advance().Text.size() + (Parts ? 1 : 0);
    ++Parts;
    if (!accept(TokenKind::Dot))
      break;
  }
  if (Parts == 0)
    return {};
  std::string_view Head = Tokens[First].Text;
  std::string_view Tail = Tokens[First + 2 * (Parts - 1)].Text;
  if (static_cast<size_t>(Tail.data() + Tail.size() - Head.data()) == Joined)
    return {Head.data(), Joined};
  char *Out = static_cast<char *>(Ctx.allocate(Joined, 1));
  size_t At = 0;
  for (size_t I = 0; I < Parts; ++I) {
    if (I)
      Out[At++] = '.';
    std::string_view Part = Tokens[First + 2 * I].Text;
    std::memcpy(Out + At, Part.data(), Part.size());
    At += Part.size();
  }
  return {Out, Joined};
}

Stmt *Parser::parseImport() {
  SourceLoc Loc = locHere();
  advance();
  ListBuilder<ImportAlias> Names(Ctx);
  do {
    ImportAlias Alias;
    Alias.Module = parseDottedName();
    if (Alias.Module.empty())
      errorHere("expected module name after 'import'");
    if (accept(TokenKind::KwAs) && check(TokenKind::Name))
      Alias.AsName = advance().Text;
    Names.push_back(Alias);
  } while (accept(TokenKind::Comma));
  return Ctx.create<ImportStmt>(Loc, Names.finish());
}

Stmt *Parser::parseImportFrom() {
  SourceLoc Loc = locHere();
  advance();
  unsigned Level = 0;
  while (accept(TokenKind::Dot))
    ++Level;
  std::string_view Module = parseDottedName();
  expect(TokenKind::KwImport, "in from-import statement");
  ListBuilder<ImportAlias> Names(Ctx);
  if (check(TokenKind::Star)) {
    Names.push_back({advance().Text, {}}); // Module "*": a star import.
  } else {
    bool Paren = accept(TokenKind::LParen);
    do {
      if (Paren && check(TokenKind::RParen))
        break; // Trailing comma inside parentheses.
      ImportAlias Alias;
      if (check(TokenKind::Name))
        Alias.Module = advance().Text;
      else
        errorHere("expected imported name");
      if (accept(TokenKind::KwAs) && check(TokenKind::Name))
        Alias.AsName = advance().Text;
      Names.push_back(Alias);
    } while (accept(TokenKind::Comma));
    if (Paren)
      expect(TokenKind::RParen, "after import list");
  }
  return Ctx.create<ImportFromStmt>(Loc, Module, Names.finish(), Level);
}

std::span<Param> Parser::parseParamList(TokenKind Terminator) {
  ListBuilder<Param> Params(Ctx);
  while (!check(Terminator) && !check(TokenKind::EndOfFile)) {
    Param P;
    P.Loc = locHere();
    if (accept(TokenKind::Star)) {
      if (check(Terminator) || check(TokenKind::Comma)) {
        // Bare '*' keyword-only marker; no parameter.
        if (!accept(TokenKind::Comma))
          break;
        continue;
      }
      P.IsVarArgs = true;
    } else if (accept(TokenKind::DoubleStar)) {
      P.IsKwArgs = true;
    }
    if (check(TokenKind::Name)) {
      P.Name = advance().Text;
    } else {
      errorHere("expected parameter name");
      break;
    }
    // Lambdas terminate their parameter list with ':', so a colon there
    // is never an annotation (Python forbids annotated lambda params).
    if (Terminator != TokenKind::Colon && accept(TokenKind::Colon))
      P.Annotation = parseTest();
    if (accept(TokenKind::Equal))
      P.Default = parseTest();
    Params.push_back(P);
    if (!accept(TokenKind::Comma))
      break;
  }
  return Params.finish();
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expr *Parser::parseTargetList() {
  // Assignment/loop targets stop before `in`, so they must not reach the
  // comparison level of the expression grammar. Trailers (attributes,
  // subscripts, calls) are still allowed: `for obj.f[i] in xs` is legal.
  SourceLoc Loc = locHere();
  auto ParseOne = [&]() -> Expr * {
    if (check(TokenKind::Star)) {
      SourceLoc StarLoc = locHere();
      advance();
      return Ctx.create<StarredExpr>(StarLoc, parseAtomWithTrailers());
    }
    return parseAtomWithTrailers();
  };
  Expr *First = ParseOne();
  if (!check(TokenKind::Comma))
    return First;
  return Ctx.create<SequenceExpr>(
      NodeKind::Tuple, Loc,
      parseCommaList(First, ParseOne,
                     {TokenKind::KwIn, TokenKind::Equal, TokenKind::Colon,
                      TokenKind::Newline, TokenKind::EndOfFile}));
}

Expr *Parser::parseExprOrTupleNoAssign() {
  SourceLoc Loc = locHere();
  Expr *First = parseStarOrTest();
  if (!check(TokenKind::Comma))
    return First;
  // A trailing comma still makes a tuple: `x, = f()`.
  return Ctx.create<SequenceExpr>(
      NodeKind::Tuple, Loc,
      parseCommaList(First, [&] { return parseStarOrTest(); },
                     {TokenKind::Newline, TokenKind::Equal,
                      TokenKind::EndOfFile, TokenKind::RParen,
                      TokenKind::Semicolon, TokenKind::Colon, TokenKind::KwIn,
                      TokenKind::Dedent}));
}

template <typename ItemFn>
std::span<Expr *>
Parser::parseCommaList(Expr *First, ItemFn ParseItem,
                       std::initializer_list<TokenKind> Stops) {
  // `First, item, item`: after each comma, one of Stops ends the list (the
  // comma was a trailing one); any other token starts the next item.
  ListBuilder<Expr *> Items(Ctx);
  Items.push_back(First);
  while (accept(TokenKind::Comma) &&
         std::none_of(Stops.begin(), Stops.end(),
                      [&](TokenKind Kind) { return check(Kind); }))
    Items.push_back(ParseItem());
  return Items.finish();
}

Expr *Parser::parseStarOrTest() {
  if (check(TokenKind::Star)) {
    SourceLoc Loc = locHere();
    advance();
    return Ctx.create<StarredExpr>(Loc, parseTest());
  }
  return parseTest();
}

Expr *Parser::parseTest() {
  if (check(TokenKind::KwLambda))
    return parseLambda();
  SourceLoc Loc = locHere();
  Expr *Body = parseOrTest();
  if (!accept(TokenKind::KwIf))
    return Body;
  Expr *Cond = parseOrTest();
  expect(TokenKind::KwElse, "in conditional expression");
  Expr *OrElse = parseTest();
  return Ctx.create<ConditionalExpr>(Loc, Body, Cond, OrElse);
}

Expr *Parser::parseLambda() {
  SourceLoc Loc = locHere();
  expect(TokenKind::KwLambda, "to start a lambda");
  std::span<Param> Params = parseParamList(TokenKind::Colon);
  expect(TokenKind::Colon, "after lambda parameters");
  Expr *Body = parseTest();
  return Ctx.create<LambdaExpr>(Loc, Params, Body);
}

Expr *Parser::parseOrTest() {
  SourceLoc Loc = locHere();
  Expr *First = parseAndTest();
  if (!check(TokenKind::KwOr))
    return First;
  ListBuilder<Expr *> Operands(Ctx);
  Operands.push_back(First);
  while (accept(TokenKind::KwOr))
    Operands.push_back(parseAndTest());
  return Ctx.create<BoolOpExpr>(Loc, /*IsAnd=*/false, Operands.finish());
}

Expr *Parser::parseAndTest() {
  SourceLoc Loc = locHere();
  Expr *First = parseNotTest();
  if (!check(TokenKind::KwAnd))
    return First;
  ListBuilder<Expr *> Operands(Ctx);
  Operands.push_back(First);
  while (accept(TokenKind::KwAnd))
    Operands.push_back(parseNotTest());
  return Ctx.create<BoolOpExpr>(Loc, /*IsAnd=*/true, Operands.finish());
}

Expr *Parser::parseNotTest() {
  if (check(TokenKind::KwNot)) {
    SourceLoc Loc = locHere();
    advance();
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::Not, parseNotTest());
  }
  return parseComparison();
}

Expr *Parser::parseComparison() {
  SourceLoc Loc = locHere();
  Expr *First = parseBinary(1);
  ListBuilder<CompareOp> Ops(Ctx);
  ListBuilder<Expr *> Comparators(Ctx);
  for (;;) {
    CompareOp Op;
    if (accept(TokenKind::EqEq))
      Op = CompareOp::Eq;
    else if (accept(TokenKind::NotEq))
      Op = CompareOp::NotEq;
    else if (accept(TokenKind::Less))
      Op = CompareOp::Less;
    else if (accept(TokenKind::LessEq))
      Op = CompareOp::LessEq;
    else if (accept(TokenKind::Greater))
      Op = CompareOp::Greater;
    else if (accept(TokenKind::GreaterEq))
      Op = CompareOp::GreaterEq;
    else if (check(TokenKind::KwIs)) {
      advance();
      Op = accept(TokenKind::KwNot) ? CompareOp::IsNot : CompareOp::Is;
    } else if (accept(TokenKind::KwIn))
      Op = CompareOp::In;
    else if (check(TokenKind::KwNot) && peek(1).is(TokenKind::KwIn)) {
      advance();
      advance();
      Op = CompareOp::NotIn;
    } else
      break;
    Ops.push_back(Op);
    Comparators.push_back(parseBinary(1));
  }
  if (Ops.empty())
    return First;
  return Ctx.create<CompareExpr>(Loc, First, Ops.finish(),
                                 Comparators.finish());
}

Expr *Parser::parseBinary(int MinPrec) {
  // Precedence climbing over the left-associative binary operators: the
  // right operand of an operator at precedence P binds only operators
  // above P. Every node takes the location of its left operand's first
  // token.
  SourceLoc Loc = locHere();
  Expr *Lhs = parseFactor();
  for (;;) {
    BinaryOp Op;
    int Prec = binaryPrecedence(current().Kind, Op);
    if (Prec < MinPrec) // MinPrec >= 1, so a non-operator (0) stops too.
      return Lhs;
    advance();
    Lhs = Ctx.create<BinaryExpr>(Loc, Op, Lhs, parseBinary(Prec + 1));
  }
}

Expr *Parser::parseFactor() {
  SourceLoc Loc = locHere();
  if (accept(TokenKind::Minus))
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::Neg, parseFactor());
  if (accept(TokenKind::Plus))
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::Pos, parseFactor());
  if (accept(TokenKind::Tilde))
    return Ctx.create<UnaryExpr>(Loc, UnaryOp::Invert, parseFactor());
  return parsePower();
}

Expr *Parser::parsePower() {
  SourceLoc Loc = locHere();
  // `await E` parses as E. Before anything that cannot start a primary,
  // `await` is a name (`await = 1` in code older than the keyword).
  if (check(TokenKind::Name) && current().Text == "await" &&
      startsPrimary(peek(1).Kind))
    advance();
  Expr *Base = parseAtomWithTrailers();
  if (accept(TokenKind::DoubleStar))
    return Ctx.create<BinaryExpr>(Loc, BinaryOp::Pow, Base, parseFactor());
  return Base;
}

Expr *Parser::parseAtomWithTrailers() {
  Expr *E = parseAtom();
  for (;;) {
    SourceLoc Loc = locHere();
    if (accept(TokenKind::Dot)) {
      if (check(TokenKind::Name)) {
        E = Ctx.create<AttributeExpr>(Loc, E, advance().Text);
      } else {
        errorHere("expected attribute name after '.'");
        return E;
      }
      continue;
    }
    if (accept(TokenKind::LParen)) {
      E = parseCall(Loc, E);
      continue;
    }
    if (accept(TokenKind::LBracket)) {
      Expr *Index = parseSubscriptIndex();
      expect(TokenKind::RBracket, "after subscript");
      E = Ctx.create<SubscriptExpr>(Loc, E, Index);
      continue;
    }
    return E;
  }
}

Expr *Parser::parseSubscriptIndex() {
  SourceLoc Loc = locHere();
  auto ParseItem = [&]() -> Expr * {
    SourceLoc ItemLoc = locHere();
    Expr *Lower = nullptr;
    if (!check(TokenKind::Colon))
      Lower = parseTest();
    if (!check(TokenKind::Colon))
      return Lower;
    advance(); // ':'
    Expr *Upper = nullptr;
    if (!check(TokenKind::Colon) && !check(TokenKind::RBracket) &&
        !check(TokenKind::Comma))
      Upper = parseTest();
    Expr *Step = nullptr;
    if (accept(TokenKind::Colon))
      if (!check(TokenKind::RBracket) && !check(TokenKind::Comma))
        Step = parseTest();
    return Ctx.create<SliceExpr>(ItemLoc, Lower, Upper, Step);
  };
  Expr *First = ParseItem();
  if (!check(TokenKind::Comma))
    return First;
  return Ctx.create<SequenceExpr>(
      NodeKind::Tuple, Loc,
      parseCommaList(First, ParseItem, {TokenKind::RBracket}));
}

Expr *Parser::parseCall(SourceLoc Loc, Expr *Callee) {
  ListBuilder<Expr *> Args(Ctx);
  ListBuilder<KeywordArg> Keywords(Ctx);
  if (!check(TokenKind::RParen)) {
    do {
      if (check(TokenKind::RParen))
        break; // Trailing comma.
      SourceLoc ArgLoc = locHere();
      if (accept(TokenKind::Star)) {
        Args.push_back(Ctx.create<StarredExpr>(ArgLoc, parseTest()));
        continue;
      }
      if (accept(TokenKind::DoubleStar)) {
        Keywords.push_back({{}, parseTest()});
        continue;
      }
      if (check(TokenKind::Name) && peek(1).is(TokenKind::Equal)) {
        std::string_view Name = advance().Text;
        advance(); // '='
        Keywords.push_back({Name, parseTest()});
        continue;
      }
      Expr *Arg = parseTest();
      // Generator expression as sole call argument: f(x for x in xs).
      if (kindPastAsync() == TokenKind::KwFor)
        Arg = parseComprehension(ArgLoc, nullptr, Arg,
                                 "in generator expression");
      Args.push_back(Arg);
    } while (accept(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "after call arguments");
  return Ctx.create<CallExpr>(Loc, Callee, Args.finish(), Keywords.finish());
}

Expr *Parser::parseComprehension(SourceLoc Loc, Expr *Key, Expr *Element,
                                 const char *InContext) {
  // The clauses after a display's element (a dict comprehension's Key is
  // its key). Each clause is `[async] for target in or_test`, then any
  // number of `if or_test`, joined with `and`. A further clause nests: it
  // becomes the element of the one before it, and the innermost clause
  // holds the display's element.
  ComprehensionExpr *Outer = nullptr, *Inner = nullptr;
  do {
    if (atAsync())
      advance();
    advance(); // 'for'
    Expr *Target = parseTargetList();
    expect(TokenKind::KwIn, InContext);
    Expr *Iter = parseOrTest();
    Expr *Cond = nullptr;
    if (accept(TokenKind::KwIf)) {
      SourceLoc CondLoc = locHere();
      Cond = parseOrTest();
      if (check(TokenKind::KwIf)) {
        ListBuilder<Expr *> Conds(Ctx);
        Conds.push_back(Cond);
        while (accept(TokenKind::KwIf))
          Conds.push_back(parseOrTest());
        Cond = Ctx.create<BoolOpExpr>(CondLoc, /*IsAnd=*/true, Conds.finish());
      }
    }
    auto *Clause = Ctx.create<ComprehensionExpr>(Loc, Element, Key, Target,
                                                 Iter, Cond);
    if (Inner) {
      Inner->Element = Clause;
      Inner->KeyElement = nullptr;
    } else {
      Outer = Clause;
    }
    Inner = Clause;
  } while (kindPastAsync() == TokenKind::KwFor);
  return Outer;
}

Expr *Parser::parseAtom() {
  SourceLoc Loc = locHere();
  if (Depth >= MaxNestingDepth) {
    errorHere("expression nesting too deep");
    synchronizeToLineEnd();
    return Ctx.create<NoneExpr>(Loc);
  }
  DepthScope Scope(Depth);
  switch (current().Kind) {
  case TokenKind::Name: {
    const Token &Tok = advance();
    // Walrus `name := value` appears in conditions; model as the value.
    if (accept(TokenKind::Walrus)) {
      Expr *Value = parseTest();
      return Value;
    }
    return Ctx.create<NameExpr>(Loc, Tok.Text);
  }
  case TokenKind::Number:
    return Ctx.create<NumberExpr>(Loc, advance().Text);
  case TokenKind::String:
    return parseStrings();
  case TokenKind::KwTrue:
    advance();
    return Ctx.create<BoolExpr>(Loc, true);
  case TokenKind::KwFalse:
    advance();
    return Ctx.create<BoolExpr>(Loc, false);
  case TokenKind::KwNone:
    advance();
    return Ctx.create<NoneExpr>(Loc);
  case TokenKind::KwYield: {
    advance();
    Expr *Value = nullptr;
    if (accept(TokenKind::KwFrom)) {
      Value = parseTest();
    } else if (!check(TokenKind::Newline) && !check(TokenKind::RParen) &&
               !check(TokenKind::EndOfFile) && !check(TokenKind::Dedent) &&
               !check(TokenKind::Semicolon))
      Value = parseExprOrTupleNoAssign();
    return Ctx.create<YieldExpr>(Loc, Value);
  }
  case TokenKind::KwLambda:
    return parseLambda();
  case TokenKind::LParen: {
    advance();
    if (accept(TokenKind::RParen))
      return Ctx.create<SequenceExpr>(NodeKind::Tuple, Loc,
                                      std::span<Expr *>());
    Expr *First = parseStarOrTest();
    if (kindPastAsync() == TokenKind::KwFor) {
      Expr *Gen =
          parseComprehension(Loc, nullptr, First, "in generator expression");
      expect(TokenKind::RParen, "after generator expression");
      return Gen;
    }
    if (check(TokenKind::Comma)) {
      std::span<Expr *> Elements = parseCommaList(
          First, [&] { return parseStarOrTest(); }, {TokenKind::RParen});
      expect(TokenKind::RParen, "after tuple display");
      return Ctx.create<SequenceExpr>(NodeKind::Tuple, Loc, Elements);
    }
    expect(TokenKind::RParen, "after parenthesized expression");
    return First;
  }
  case TokenKind::LBracket: {
    advance();
    if (accept(TokenKind::RBracket))
      return Ctx.create<SequenceExpr>(NodeKind::List, Loc,
                                      std::span<Expr *>());
    Expr *First = parseStarOrTest();
    if (kindPastAsync() == TokenKind::KwFor) {
      Expr *Comp =
          parseComprehension(Loc, nullptr, First, "in list comprehension");
      expect(TokenKind::RBracket, "after list comprehension");
      return Comp;
    }
    std::span<Expr *> Elements = parseCommaList(
        First, [&] { return parseStarOrTest(); }, {TokenKind::RBracket});
    expect(TokenKind::RBracket, "after list display");
    return Ctx.create<SequenceExpr>(NodeKind::List, Loc, Elements);
  }
  case TokenKind::LBrace: {
    advance();
    if (accept(TokenKind::RBrace))
      return Ctx.create<DictExpr>(Loc, std::span<Expr *>(),
                                  std::span<Expr *>());
    ListBuilder<Expr *> Keys(Ctx), Values(Ctx);
    // The rest of a dict display, after its first entry.
    auto DictTail = [&]() -> Expr * {
      while (accept(TokenKind::Comma)) {
        if (check(TokenKind::RBrace))
          break;
        if (accept(TokenKind::DoubleStar)) {
          Keys.push_back(nullptr);
          Values.push_back(parseTest());
          continue;
        }
        Keys.push_back(parseTest());
        expect(TokenKind::Colon, "in dict display");
        Values.push_back(parseTest());
      }
      expect(TokenKind::RBrace, "after dict display");
      return Ctx.create<DictExpr>(Loc, Keys.finish(), Values.finish());
    };
    // `**mapping` can only start a dict display.
    if (accept(TokenKind::DoubleStar)) {
      Keys.push_back(nullptr);
      Values.push_back(parseTest());
      return DictTail();
    }
    Expr *First = parseTest();
    if (accept(TokenKind::Colon)) {
      Expr *FirstValue = parseTest();
      if (kindPastAsync() == TokenKind::KwFor) {
        Expr *Comp = parseComprehension(Loc, First, FirstValue,
                                        "in dict comprehension");
        expect(TokenKind::RBrace, "after dict comprehension");
        return Comp;
      }
      Keys.push_back(First);
      Values.push_back(FirstValue);
      return DictTail();
    }
    if (kindPastAsync() == TokenKind::KwFor) {
      Expr *Comp =
          parseComprehension(Loc, nullptr, First, "in set comprehension");
      expect(TokenKind::RBrace, "after set comprehension");
      return Comp;
    }
    std::span<Expr *> Elements = parseCommaList(
        First, [&] { return parseTest(); }, {TokenKind::RBrace});
    expect(TokenKind::RBrace, "after set display");
    return Ctx.create<SequenceExpr>(NodeKind::Set, Loc, Elements);
  }
  default:
    errorHere(std::string("unexpected token '") +
              tokenKindName(current().Kind) + "' in expression");
    // Produce a placeholder so parsing can continue.
    if (!check(TokenKind::Newline) && !check(TokenKind::EndOfFile) &&
        !check(TokenKind::Dedent))
      advance();
    return Ctx.create<NoneExpr>(Loc);
  }
}

Expr *Parser::parseStrings() {
  // Adjacent string literals concatenate; the result is an f-string if any
  // piece is one. A lone literal with nothing to decode is its token's
  // view of the source; otherwise the pieces are decoded and joined into
  // one arena buffer, and each f-string piece's fields are parsed out of
  // its part of that buffer.
  SourceLoc Loc = locHere();
  size_t First = Pos, Last = Pos, Bytes = 0;
  bool Copy = false, AnyFString = false;
  for (; Tokens[Last].is(TokenKind::String); ++Last) {
    Bytes += Tokens[Last].Text.size();
    Copy |= Tokens[Last].NeedsDecode;
    AnyFString |= Tokens[Last].IsFString;
  }
  Copy |= Last - First > 1;
  Pos = Last; // The stream ends with EndOfFile, so Last is in range.

  char *Buf = Copy ? static_cast<char *>(Ctx.allocate(Bytes, 1)) : nullptr;
  char *At = Buf;
  ListBuilder<Expr *> Interpolations(Ctx);
  for (size_t I = First; I < Last; ++I) {
    const Token &Piece = Tokens[I];
    std::string_view Text = Piece.Text;
    if (Copy) {
      char *PieceBegin = At;
      if (Piece.NeedsDecode) {
        At = decodeBody(Piece.Text, At);
      } else if (!Piece.Text.empty()) {
        std::memcpy(At, Piece.Text.data(), Piece.Text.size());
        At += Piece.Text.size();
      }
      Text = {PieceBegin, static_cast<size_t>(At - PieceBegin)};
    }
    if (Piece.IsFString)
      parseFStringInterpolations(Text, Loc, Interpolations);
  }
  std::string_view Value =
      Copy ? std::string_view(Buf, static_cast<size_t>(At - Buf))
           : Tokens[First].Text;
  if (AnyFString)
    return Ctx.create<JoinedStrExpr>(Loc, Value, Interpolations.finish());
  return Ctx.create<StringExpr>(Loc, Value);
}

void Parser::parseFStringInterpolations(std::string_view Text, SourceLoc Loc,
                                        ListBuilder<Expr *> &Out) {
  // Scan for `{expr[!conv][:format][=]}` fields; `{{`/`}}` are literal
  // braces. Quoted spans inside a field are skipped so `{d['k']}` works.
  // Text lives in the source or the arena, so the names parsed out of a
  // field can view it.
  for (size_t I = 0; I < Text.size(); ++I) {
    char C = Text[I];
    if (C == '}') {
      if (I + 1 < Text.size() && Text[I + 1] == '}')
        ++I;
      continue;
    }
    if (C != '{')
      continue;
    if (I + 1 < Text.size() && Text[I + 1] == '{') {
      ++I;
      continue;
    }
    // Find the matching close brace and the end of the expression part
    // (the first `:` or `!conv` at depth 0 starts the format spec).
    size_t Depth = 1;
    size_t ExprEnd = std::string_view::npos;
    size_t FieldEnd = std::string_view::npos;
    char Quote = '\0';
    for (size_t J = I + 1; J < Text.size(); ++J) {
      char D = Text[J];
      if (Quote != '\0') {
        if (D == Quote)
          Quote = '\0';
        continue;
      }
      if (D == '\'' || D == '"') {
        Quote = D;
        continue;
      }
      if (D == '{' || D == '[' || D == '(')
        ++Depth;
      if (D == '}' || D == ']' || D == ')') {
        if (D == '}' && Depth == 1) {
          FieldEnd = J;
          if (ExprEnd == std::string_view::npos)
            ExprEnd = J;
          break;
        }
        if (Depth > 1)
          --Depth;
        continue;
      }
      if (Depth == 1 && ExprEnd == std::string_view::npos) {
        if (D == ':')
          ExprEnd = J;
        else if (D == '!' && J + 1 < Text.size() && Text[J + 1] != '=')
          ExprEnd = J;
      }
    }
    if (FieldEnd == std::string_view::npos) {
      Errors.push_back({Loc.Line, Loc.Col,
                        "unterminated interpolation in f-string"});
      return;
    }
    std::string_view ExprText = Text.substr(I + 1, ExprEnd - I - 1);
    // f"{x=}" debug form, whitespace allowed after the '=' (f"{x = }"): the
    // trailing '=' is display sugar.
    size_t Last = ExprText.find_last_not_of(" \t\r\n\f");
    if (Last != std::string_view::npos && ExprText[Last] == '=')
      ExprText = ExprText.substr(0, ExprText.find_last_not_of('=', Last) + 1);
    if (!ExprText.empty()) {
      Lexer FieldLexer(ExprText);
      FieldLexer.lexAll(FieldTokens);
      Parser Field(Ctx, std::move(FieldTokens));
      ModuleNode *Sub = Field.parseModule();
      for (const ParseError &E : Field.errors())
        Errors.push_back({Loc.Line, Loc.Col,
                          "in f-string interpolation: " + E.Message});
      if (Sub->Body.size() == 1)
        if (const auto *ES = dyn_cast<ExprStmt>(Sub->Body.front()))
          Out.push_back(ES->Value);
      FieldTokens = std::move(Field.Tokens);
    }
    I = FieldEnd;
  }
}

ModuleNode *seldon::pyast::parseSource(AstContext &Ctx,
                                       std::string_view Source,
                                       std::vector<ParseError> *ErrorsOut) {
  // The AST views the text it was parsed from, so that text moves into the
  // context first.
  Timer LexClock;
  Lexer Lex(Ctx.copyText(Source));
  std::vector<Token> Tokens = Lex.lexAll();
  double LexSeconds = LexClock.seconds();
  if (ErrorsOut)
    for (const LexError &E : Lex.errors())
      ErrorsOut->push_back({E.Line, E.Col, E.Message});
  Timer ParseClock;
  Parser P(Ctx, std::move(Tokens));
  ModuleNode *M = P.parseModule();
  double ParseSeconds = ParseClock.seconds();
  if (ErrorsOut)
    for (const ParseError &E : P.errors())
      ErrorsOut->push_back(E);
  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.timer("lex.file_seconds").record(LexSeconds);
    Reg.timer("parse.file_seconds").record(ParseSeconds);
  }
  return M;
}
