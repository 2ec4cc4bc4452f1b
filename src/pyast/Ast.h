//===- pyast/Ast.h - Python abstract syntax tree -----------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node hierarchy for the supported Python subset, the bump arena
/// (AstContext) that holds all nodes, and LLVM-style isa/cast/dyn_cast
/// helpers keyed on a NodeKind discriminator (no C++ RTTI).
///
/// Nodes are trivially destructible: names and literal text are
/// std::string_views, child lists are std::spans of arena arrays, and the
/// context frees its blocks without visiting a node. A view points into
/// the module text the nodes were parsed from (parseSource copies that
/// text into the context) or into text the parser wrote to the arena
/// (decoded strings, joined dotted names), so an AST never outlives its
/// context.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PYAST_AST_H
#define SELDON_PYAST_AST_H

#include "support/Arena.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

namespace seldon {
namespace pyast {

/// Source location of a node (1-based).
struct SourceLoc {
  uint32_t Line = 0;
  uint32_t Col = 0;
};

/// Discriminator for every concrete AST node class.
enum class NodeKind : uint8_t {
  // Expressions.
  Name,
  NumberLit,
  StringLit,
  BoolLit,
  NoneLit,
  Attribute,
  Subscript,
  Slice,
  Call,
  Binary,
  Unary,
  BoolOp,
  Compare,
  List,
  Tuple,
  Set,
  Dict,
  Lambda,
  Conditional,
  Starred,
  Comprehension,
  JoinedStr,
  Yield,

  // Statements.
  ExprStmt,
  Assign,
  AugAssign,
  AnnAssign,
  FunctionDef,
  ClassDef,
  Return,
  If,
  While,
  For,
  Import,
  ImportFrom,
  Pass,
  Break,
  Continue,
  With,
  Try,
  Raise,
  Global,
  Delete,
  Assert,

  // Top level.
  Module,
};

/// Base class of every AST node. Nodes are created through AstContext and
/// referenced by raw pointer; the context owns their memory and never
/// runs a destructor, so every node class is trivially destructible.
class Node {
public:
  Node(const Node &) = delete;
  Node &operator=(const Node &) = delete;

  NodeKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

protected:
  Node(NodeKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  NodeKind Kind;
  SourceLoc Loc;
};

/// LLVM-style type queries keyed on NodeKind.
template <typename T> bool isa(const Node *N) {
  assert(N && "isa<> on null node");
  return T::classof(N);
}

template <typename T> T *cast(Node *N) {
  assert(isa<T>(N) && "cast<> to incompatible node kind");
  return static_cast<T *>(N);
}

template <typename T> const T *cast(const Node *N) {
  assert(isa<T>(N) && "cast<> to incompatible node kind");
  return static_cast<const T *>(N);
}

template <typename T> T *dyn_cast(Node *N) {
  return N && T::classof(N) ? static_cast<T *>(N) : nullptr;
}

template <typename T> const T *dyn_cast(const Node *N) {
  return N && T::classof(N) ? static_cast<const T *>(N) : nullptr;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of all expressions.
class Expr : public Node {
public:
  static bool classof(const Node *N) {
    return N->kind() >= NodeKind::Name && N->kind() <= NodeKind::Yield;
  }

protected:
  using Node::Node;
};

/// An identifier reference, e.g. `filename`.
class NameExpr : public Expr {
public:
  NameExpr(SourceLoc Loc, std::string_view Id)
      : Expr(NodeKind::Name, Loc), Id(Id) {}
  std::string_view Id;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Name; }
};

/// A numeric literal; the spelling is kept verbatim.
class NumberExpr : public Expr {
public:
  NumberExpr(SourceLoc Loc, std::string_view Spelling)
      : Expr(NodeKind::NumberLit, Loc), Spelling(Spelling) {}
  std::string_view Spelling;
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::NumberLit;
  }
};

/// A string literal (escape sequences already decoded).
class StringExpr : public Expr {
public:
  StringExpr(SourceLoc Loc, std::string_view Value)
      : Expr(NodeKind::StringLit, Loc), Value(Value) {}
  std::string_view Value;
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::StringLit;
  }
};

/// `True` or `False`.
class BoolExpr : public Expr {
public:
  BoolExpr(SourceLoc Loc, bool Value)
      : Expr(NodeKind::BoolLit, Loc), Value(Value) {}
  bool Value;
  static bool classof(const Node *N) { return N->kind() == NodeKind::BoolLit; }
};

/// `None`.
class NoneExpr : public Expr {
public:
  explicit NoneExpr(SourceLoc Loc) : Expr(NodeKind::NoneLit, Loc) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::NoneLit; }
};

/// Attribute access, e.g. `request.files`.
class AttributeExpr : public Expr {
public:
  AttributeExpr(SourceLoc Loc, Expr *Value, std::string_view Attr)
      : Expr(NodeKind::Attribute, Loc), Value(Value), Attr(Attr) {}
  Expr *Value;
  std::string_view Attr;
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::Attribute;
  }
};

/// Subscript access, e.g. `request.files['f']` or `d[k]`.
class SubscriptExpr : public Expr {
public:
  SubscriptExpr(SourceLoc Loc, Expr *Value, Expr *Index)
      : Expr(NodeKind::Subscript, Loc), Value(Value), Index(Index) {}
  Expr *Value;
  Expr *Index;
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::Subscript;
  }
};

/// A slice `lo:hi:step` appearing as a subscript index; bounds may be null.
class SliceExpr : public Expr {
public:
  SliceExpr(SourceLoc Loc, Expr *Lower, Expr *Upper, Expr *Step)
      : Expr(NodeKind::Slice, Loc), Lower(Lower), Upper(Upper), Step(Step) {}
  Expr *Lower;
  Expr *Upper;
  Expr *Step;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Slice; }
};

/// A keyword argument `name=value` at a call site. `Name` is empty for a
/// `**kwargs` expansion.
struct KeywordArg {
  std::string_view Name;
  Expr *Value = nullptr;
};

/// A function or method call.
class CallExpr : public Expr {
public:
  CallExpr(SourceLoc Loc, Expr *Callee, std::span<Expr *> Args,
           std::span<KeywordArg> Keywords)
      : Expr(NodeKind::Call, Loc), Callee(Callee), Args(Args),
        Keywords(Keywords) {}
  Expr *Callee;
  std::span<Expr *> Args;
  std::span<KeywordArg> Keywords;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Call; }
};

/// Binary arithmetic/bitwise operators.
enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  MatMul,
  Div,
  FloorDiv,
  Mod,
  Pow,
  LShift,
  RShift,
  BitAnd,
  BitOr,
  BitXor,
};

/// Returns a printable spelling such as "+" for \p Op.
const char *binaryOpSpelling(BinaryOp Op);

/// A binary operation, e.g. `'<div>' + msg`.
class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, BinaryOp Op, Expr *Lhs, Expr *Rhs)
      : Expr(NodeKind::Binary, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  BinaryOp Op;
  Expr *Lhs;
  Expr *Rhs;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Binary; }
};

/// Unary operators.
enum class UnaryOp : uint8_t { Neg, Pos, Invert, Not };

/// A unary operation, e.g. `not ok` or `-x`.
class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, UnaryOp Op, Expr *Operand)
      : Expr(NodeKind::Unary, Loc), Op(Op), Operand(Operand) {}
  UnaryOp Op;
  Expr *Operand;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Unary; }
};

/// `and` / `or` over two or more operands.
class BoolOpExpr : public Expr {
public:
  BoolOpExpr(SourceLoc Loc, bool IsAnd, std::span<Expr *> Operands)
      : Expr(NodeKind::BoolOp, Loc), IsAnd(IsAnd),
        Operands(Operands) {}
  bool IsAnd;
  std::span<Expr *> Operands;
  static bool classof(const Node *N) { return N->kind() == NodeKind::BoolOp; }
};

/// Comparison operators (including identity and membership tests).
enum class CompareOp : uint8_t {
  Eq,
  NotEq,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  Is,
  IsNot,
  In,
  NotIn,
};

/// A (possibly chained) comparison, e.g. `0 <= i < n`.
class CompareExpr : public Expr {
public:
  CompareExpr(SourceLoc Loc, Expr *First, std::span<CompareOp> Ops,
              std::span<Expr *> Comparators)
      : Expr(NodeKind::Compare, Loc), First(First), Ops(Ops),
        Comparators(Comparators) {}
  Expr *First;
  std::span<CompareOp> Ops;
  std::span<Expr *> Comparators;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Compare; }
};

/// A list display `[a, b]` (kind List), a tuple display `(a, b)` or bare
/// `a, b` (Tuple), or a set display `{a, b}` (Set).
class SequenceExpr : public Expr {
public:
  SequenceExpr(NodeKind Kind, SourceLoc Loc, std::span<Expr *> Elements)
      : Expr(Kind, Loc), Elements(Elements) {
    assert(classof(this) && "not a list, tuple or set kind");
  }
  std::span<Expr *> Elements;
  static bool classof(const Node *N) {
    return N->kind() >= NodeKind::List && N->kind() <= NodeKind::Set;
  }
};

/// A dict display `{k: v, ...}`. Keys and Values are parallel lists; a
/// null key denotes a `**mapping` expansion.
class DictExpr : public Expr {
public:
  DictExpr(SourceLoc Loc, std::span<Expr *> Keys, std::span<Expr *> Values)
      : Expr(NodeKind::Dict, Loc), Keys(Keys),
        Values(Values) {}
  std::span<Expr *> Keys;
  std::span<Expr *> Values;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Dict; }
};

/// A formal parameter (of a def or a lambda).
struct Param {
  std::string_view Name;
  Expr *Default = nullptr;    ///< May be null.
  Expr *Annotation = nullptr; ///< May be null; ignored by the analysis.
  bool IsVarArgs = false;     ///< `*args`
  bool IsKwArgs = false;      ///< `**kwargs`
  SourceLoc Loc;
};

/// A lambda expression.
class LambdaExpr : public Expr {
public:
  LambdaExpr(SourceLoc Loc, std::span<Param> Params, Expr *Body)
      : Expr(NodeKind::Lambda, Loc), Params(Params), Body(Body) {}
  std::span<Param> Params;
  Expr *Body;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Lambda; }
};

/// A conditional expression `a if cond else b`.
class ConditionalExpr : public Expr {
public:
  ConditionalExpr(SourceLoc Loc, Expr *Body, Expr *Cond, Expr *OrElse)
      : Expr(NodeKind::Conditional, Loc), Body(Body), Cond(Cond),
        OrElse(OrElse) {}
  Expr *Body;
  Expr *Cond;
  Expr *OrElse;
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::Conditional;
  }
};

/// A starred expression `*x` in a call or assignment target.
class StarredExpr : public Expr {
public:
  StarredExpr(SourceLoc Loc, Expr *Value)
      : Expr(NodeKind::Starred, Loc), Value(Value) {}
  Expr *Value;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Starred; }
};

/// One `for` clause of a comprehension of any display, e.g. `[f(x) for x
/// in xs if p(x)]`. A further clause is an inner comprehension held in \c
/// Element, and several `if`s are one `and`. For dict comprehensions, \c
/// Element is the value and \c KeyElement the key.
class ComprehensionExpr : public Expr {
public:
  ComprehensionExpr(SourceLoc Loc, Expr *Element, Expr *KeyElement,
                    Expr *Target, Expr *Iter, Expr *Cond)
      : Expr(NodeKind::Comprehension, Loc), Element(Element),
        KeyElement(KeyElement), Target(Target), Iter(Iter), Cond(Cond) {}
  Expr *Element;
  Expr *KeyElement; ///< Null unless a dict comprehension.
  Expr *Target;
  Expr *Iter;
  Expr *Cond; ///< May be null.
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::Comprehension;
  }
};

/// An f-string: only the `{...}` interpolation expressions are kept (the
/// literal text fragments carry no taint). `f"hi {name}!"` yields one
/// interpolation, `name`.
class JoinedStrExpr : public Expr {
public:
  JoinedStrExpr(SourceLoc Loc, std::string_view Text,
                std::span<Expr *> Interpolations)
      : Expr(NodeKind::JoinedStr, Loc), Text(Text),
        Interpolations(Interpolations) {}
  /// The raw literal text (escapes decoded, interpolations verbatim).
  std::string_view Text;
  std::span<Expr *> Interpolations;
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::JoinedStr;
  }
};

/// `yield x` (treated as an expression; generators are not modeled further).
class YieldExpr : public Expr {
public:
  YieldExpr(SourceLoc Loc, Expr *Value)
      : Expr(NodeKind::Yield, Loc), Value(Value) {}
  Expr *Value; ///< May be null.
  static bool classof(const Node *N) { return N->kind() == NodeKind::Yield; }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class of all statements.
class Stmt : public Node {
public:
  static bool classof(const Node *N) {
    return N->kind() >= NodeKind::ExprStmt && N->kind() <= NodeKind::Assert;
  }

protected:
  using Node::Node;
};

/// An expression evaluated for its side effects (e.g. a bare call).
class ExprStmt : public Stmt {
public:
  ExprStmt(SourceLoc Loc, Expr *Value)
      : Stmt(NodeKind::ExprStmt, Loc), Value(Value) {}
  Expr *Value;
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::ExprStmt;
  }
};

/// `a = b = value` — one value, one or more targets.
class AssignStmt : public Stmt {
public:
  AssignStmt(SourceLoc Loc, std::span<Expr *> Targets, Expr *Value)
      : Stmt(NodeKind::Assign, Loc), Targets(Targets),
        Value(Value) {}
  std::span<Expr *> Targets;
  Expr *Value;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Assign; }
};

/// `target op= value`.
class AugAssignStmt : public Stmt {
public:
  AugAssignStmt(SourceLoc Loc, Expr *Target, BinaryOp Op, Expr *Value)
      : Stmt(NodeKind::AugAssign, Loc), Target(Target), Op(Op), Value(Value) {}
  Expr *Target;
  BinaryOp Op;
  Expr *Value;
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::AugAssign;
  }
};

/// `target: annotation = value` (value may be absent).
class AnnAssignStmt : public Stmt {
public:
  AnnAssignStmt(SourceLoc Loc, Expr *Target, Expr *Annotation, Expr *Value)
      : Stmt(NodeKind::AnnAssign, Loc), Target(Target), Annotation(Annotation),
        Value(Value) {}
  Expr *Target;
  Expr *Annotation;
  Expr *Value; ///< May be null.
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::AnnAssign;
  }
};

/// A function (or method) definition.
class FunctionDefStmt : public Stmt {
public:
  FunctionDefStmt(SourceLoc Loc, std::string_view Name, std::span<Param> Params,
                  std::span<Stmt *> Body, std::span<Expr *> Decorators,
                  Expr *ReturnAnnotation)
      : Stmt(NodeKind::FunctionDef, Loc), Name(Name),
        Params(Params), Body(Body),
        Decorators(Decorators), ReturnAnnotation(ReturnAnnotation) {}
  std::string_view Name;
  std::span<Param> Params;
  std::span<Stmt *> Body;
  std::span<Expr *> Decorators;
  Expr *ReturnAnnotation; ///< May be null; ignored by the analysis.
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::FunctionDef;
  }
};

/// A class definition.
class ClassDefStmt : public Stmt {
public:
  ClassDefStmt(SourceLoc Loc, std::string_view Name, std::span<Expr *> Bases,
               std::span<Stmt *> Body, std::span<Expr *> Decorators)
      : Stmt(NodeKind::ClassDef, Loc), Name(Name),
        Bases(Bases), Body(Body),
        Decorators(Decorators) {}
  std::string_view Name;
  std::span<Expr *> Bases;
  std::span<Stmt *> Body;
  std::span<Expr *> Decorators;
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::ClassDef;
  }
};

/// `return [value]`.
class ReturnStmt : public Stmt {
public:
  ReturnStmt(SourceLoc Loc, Expr *Value)
      : Stmt(NodeKind::Return, Loc), Value(Value) {}
  Expr *Value; ///< May be null.
  static bool classof(const Node *N) { return N->kind() == NodeKind::Return; }
};

/// `if`/`elif`/`else`; elif chains are nested If statements in Else.
class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, Expr *Cond, std::span<Stmt *> Then,
         std::span<Stmt *> Else)
      : Stmt(NodeKind::If, Loc), Cond(Cond), Then(Then),
        Else(Else) {}
  Expr *Cond;
  std::span<Stmt *> Then;
  std::span<Stmt *> Else;
  static bool classof(const Node *N) { return N->kind() == NodeKind::If; }
};

/// `while cond:` loop. The `else` clause is folded into Body analysis-wise.
class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, Expr *Cond, std::span<Stmt *> Body,
            std::span<Stmt *> Else)
      : Stmt(NodeKind::While, Loc), Cond(Cond), Body(Body),
        Else(Else) {}
  Expr *Cond;
  std::span<Stmt *> Body;
  std::span<Stmt *> Else;
  static bool classof(const Node *N) { return N->kind() == NodeKind::While; }
};

/// `for target in iter:` loop.
class ForStmt : public Stmt {
public:
  ForStmt(SourceLoc Loc, Expr *Target, Expr *Iter, std::span<Stmt *> Body,
          std::span<Stmt *> Else)
      : Stmt(NodeKind::For, Loc), Target(Target), Iter(Iter),
        Body(Body), Else(Else) {}
  Expr *Target;
  Expr *Iter;
  std::span<Stmt *> Body;
  std::span<Stmt *> Else;
  static bool classof(const Node *N) { return N->kind() == NodeKind::For; }
};

/// One `module [as name]` clause of an import statement.
struct ImportAlias {
  std::string_view Module; ///< Dotted module path, e.g. "os.path".
  std::string_view AsName; ///< Empty when there is no `as` clause.
};

/// `import a.b, c as d`.
class ImportStmt : public Stmt {
public:
  ImportStmt(SourceLoc Loc, std::span<ImportAlias> Names)
      : Stmt(NodeKind::Import, Loc), Names(Names) {}
  std::span<ImportAlias> Names;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Import; }
};

/// `from module import a as b, c` (`Level` counts leading dots).
class ImportFromStmt : public Stmt {
public:
  ImportFromStmt(SourceLoc Loc, std::string_view Module,
                 std::span<ImportAlias> Names, unsigned Level)
      : Stmt(NodeKind::ImportFrom, Loc), Module(Module),
        Names(Names), Level(Level) {}
  std::string_view Module;
  std::span<ImportAlias> Names; ///< Name "*" denotes a star import.
  unsigned Level;
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::ImportFrom;
  }
};

/// `pass`.
class PassStmt : public Stmt {
public:
  explicit PassStmt(SourceLoc Loc) : Stmt(NodeKind::Pass, Loc) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Pass; }
};

/// `break`.
class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(NodeKind::Break, Loc) {}
  static bool classof(const Node *N) { return N->kind() == NodeKind::Break; }
};

/// `continue`.
class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(NodeKind::Continue, Loc) {}
  static bool classof(const Node *N) {
    return N->kind() == NodeKind::Continue;
  }
};

/// One `expr [as var]` item of a with statement.
struct WithItem {
  Expr *ContextExpr = nullptr;
  Expr *OptionalVars = nullptr; ///< May be null.
};

/// `with a as b, c:`.
class WithStmt : public Stmt {
public:
  WithStmt(SourceLoc Loc, std::span<WithItem> Items, std::span<Stmt *> Body)
      : Stmt(NodeKind::With, Loc), Items(Items),
        Body(Body) {}
  std::span<WithItem> Items;
  std::span<Stmt *> Body;
  static bool classof(const Node *N) { return N->kind() == NodeKind::With; }
};

/// One `except [type [as name]]:` handler.
struct ExceptHandler {
  Expr *Type = nullptr; ///< May be null (bare except).
  std::string_view Name;     ///< Empty when there is no `as` clause.
  std::span<Stmt *> Body;
};

/// `try`/`except`/`else`/`finally`.
class TryStmt : public Stmt {
public:
  TryStmt(SourceLoc Loc, std::span<Stmt *> Body,
          std::span<ExceptHandler> Handlers, std::span<Stmt *> OrElse,
          std::span<Stmt *> Finally)
      : Stmt(NodeKind::Try, Loc), Body(Body),
        Handlers(Handlers), OrElse(OrElse),
        Finally(Finally) {}
  std::span<Stmt *> Body;
  std::span<ExceptHandler> Handlers;
  std::span<Stmt *> OrElse;
  std::span<Stmt *> Finally;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Try; }
};

/// `raise [exc [from cause]]`.
class RaiseStmt : public Stmt {
public:
  RaiseStmt(SourceLoc Loc, Expr *Exc, Expr *Cause)
      : Stmt(NodeKind::Raise, Loc), Exc(Exc), Cause(Cause) {}
  Expr *Exc;   ///< May be null.
  Expr *Cause; ///< May be null.
  static bool classof(const Node *N) { return N->kind() == NodeKind::Raise; }
};

/// `global a, b` (also used for `nonlocal`, which we treat identically).
class GlobalStmt : public Stmt {
public:
  GlobalStmt(SourceLoc Loc, std::span<std::string_view> Names)
      : Stmt(NodeKind::Global, Loc), Names(Names) {}
  std::span<std::string_view> Names;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Global; }
};

/// `del a, b`.
class DeleteStmt : public Stmt {
public:
  DeleteStmt(SourceLoc Loc, std::span<Expr *> Targets)
      : Stmt(NodeKind::Delete, Loc), Targets(Targets) {}
  std::span<Expr *> Targets;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Delete; }
};

/// `assert test[, msg]`.
class AssertStmt : public Stmt {
public:
  AssertStmt(SourceLoc Loc, Expr *Test, Expr *Msg)
      : Stmt(NodeKind::Assert, Loc), Test(Test), Msg(Msg) {}
  Expr *Test;
  Expr *Msg; ///< May be null.
  static bool classof(const Node *N) { return N->kind() == NodeKind::Assert; }
};

//===----------------------------------------------------------------------===//
// Module and context
//===----------------------------------------------------------------------===//

/// A parsed source file.
class ModuleNode : public Node {
public:
  ModuleNode(SourceLoc Loc, std::span<Stmt *> Body)
      : Node(NodeKind::Module, Loc), Body(Body) {}
  std::span<Stmt *> Body;
  static bool classof(const Node *N) { return N->kind() == NodeKind::Module; }
};

/// The arena behind an AST: nodes, child lists and parser-written text
/// are bumped out of chunked blocks, and destroying the context frees the
/// blocks without visiting a node. Everything created through a context
/// stays valid for the context's lifetime.
class AstContext {
public:
  /// Allocates a node of type \p T.
  template <typename T, typename... Args> T *create(Args &&...CtorArgs) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena never runs a node's destructor");
    ++NumNodes;
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(CtorArgs)...);
  }

  /// Returns \p Size bytes aligned to \p Align (a power of two).
  void *allocate(size_t Size, size_t Align) {
    return Mem.allocate(Size, Align);
  }

  /// Copies \p Items into the arena.
  template <typename T> std::span<T> copyArray(std::span<const T> Items) {
    return Mem.copyArray(Items);
  }

  /// Copies \p Text into the arena.
  std::string_view copyText(std::string_view Text) {
    return Mem.copyText(Text);
  }

  size_t numNodes() const { return NumNodes; }
  /// Heap blocks the arena holds; the only allocations a parse makes.
  size_t numBlocks() const { return Mem.numBlocks(); }
  /// True if \p P points into memory this context allocated.
  bool contains(const void *P) const { return Mem.contains(P); }

private:
  Arena Mem;
  size_t NumNodes = 0;
};

} // namespace pyast
} // namespace seldon

#endif // SELDON_PYAST_AST_H
