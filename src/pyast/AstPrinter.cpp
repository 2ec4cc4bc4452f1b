//===- pyast/AstPrinter.cpp - Debug dump of the Python AST ----------------===//

#include "pyast/AstPrinter.h"

#include "pyast/Ast.h"

#include <sstream>

using namespace seldon;
using namespace seldon::pyast;

namespace {

/// Appends ` module [as name]` for each of \p Aliases.
void appendAliases(std::string &Text, std::span<const ImportAlias> Aliases) {
  for (const ImportAlias &A : Aliases) {
    Text.append(" ").append(A.Module);
    if (!A.AsName.empty())
      Text.append(" as ").append(A.AsName);
  }
}

/// Indented tree dumper over the node hierarchy.
class Dumper {
public:
  explicit Dumper(std::ostringstream &OS) : OS(OS) {}

  void dump(const Node *N) {
    if (!N) {
      line("<null>");
      return;
    }
    if (const auto *M = dyn_cast<ModuleNode>(N)) {
      line("Module");
      Indented In(*this);
      for (const Stmt *S : M->Body)
        dump(S);
      return;
    }
    if (const auto *E = dyn_cast<Expr>(N)) {
      dumpExpr(E);
      return;
    }
    dumpStmt(cast<Stmt>(N));
  }

private:
  struct Indented {
    explicit Indented(Dumper &D) : D(D) { ++D.Depth; }
    ~Indented() { --D.Depth; }
    Dumper &D;
  };

  void line(const std::string &Text) {
    for (int I = 0; I < Depth; ++I)
      OS << "  ";
    OS << Text << '\n';
  }

  void dumpBody(const char *Label, std::span<Stmt *const> Body) {
    if (Body.empty())
      return;
    line(Label);
    Indented In(*this);
    for (const Stmt *S : Body)
      dump(S);
  }

  void dumpStmt(const Stmt *S) {
    switch (S->kind()) {
    case NodeKind::ExprStmt:
      line("ExprStmt");
      {
        Indented In(*this);
        dump(cast<ExprStmt>(S)->Value);
      }
      return;
    case NodeKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      line("Assign");
      Indented In(*this);
      for (const Expr *T : A->Targets) {
        line("target:");
        Indented In2(*this);
        dump(T);
      }
      line("value:");
      Indented In3(*this);
      dump(A->Value);
      return;
    }
    case NodeKind::AugAssign: {
      const auto *A = cast<AugAssignStmt>(S);
      line(std::string("AugAssign ") + binaryOpSpelling(A->Op) + "=");
      Indented In(*this);
      dump(A->Target);
      dump(A->Value);
      return;
    }
    case NodeKind::AnnAssign: {
      const auto *A = cast<AnnAssignStmt>(S);
      line("AnnAssign");
      Indented In(*this);
      dump(A->Target);
      if (A->Value)
        dump(A->Value);
      return;
    }
    case NodeKind::FunctionDef: {
      const auto *F = cast<FunctionDefStmt>(S);
      std::string Header = "FunctionDef ";
      Header += F->Name;
      Header += "(";
      for (size_t I = 0; I < F->Params.size(); ++I) {
        if (I)
          Header += ", ";
        if (F->Params[I].IsVarArgs)
          Header += "*";
        if (F->Params[I].IsKwArgs)
          Header += "**";
        Header += F->Params[I].Name;
      }
      Header += ")";
      line(Header);
      Indented In(*this);
      for (const Expr *D : F->Decorators) {
        line("decorator:");
        Indented In2(*this);
        dump(D);
      }
      dumpBody("body:", F->Body);
      return;
    }
    case NodeKind::ClassDef: {
      const auto *C = cast<ClassDefStmt>(S);
      line(std::string("ClassDef ").append(C->Name));
      Indented In(*this);
      for (const Expr *B : C->Bases) {
        line("base:");
        Indented In2(*this);
        dump(B);
      }
      dumpBody("body:", C->Body);
      return;
    }
    case NodeKind::Return:
      line("Return");
      if (cast<ReturnStmt>(S)->Value) {
        Indented In(*this);
        dump(cast<ReturnStmt>(S)->Value);
      }
      return;
    case NodeKind::If: {
      const auto *I = cast<IfStmt>(S);
      line("If");
      Indented In(*this);
      line("cond:");
      {
        Indented In2(*this);
        dump(I->Cond);
      }
      dumpBody("then:", I->Then);
      dumpBody("else:", I->Else);
      return;
    }
    case NodeKind::While: {
      const auto *W = cast<WhileStmt>(S);
      line("While");
      Indented In(*this);
      dump(W->Cond);
      dumpBody("body:", W->Body);
      dumpBody("else:", W->Else);
      return;
    }
    case NodeKind::For: {
      const auto *F = cast<ForStmt>(S);
      line("For");
      Indented In(*this);
      dump(F->Target);
      dump(F->Iter);
      dumpBody("body:", F->Body);
      dumpBody("else:", F->Else);
      return;
    }
    case NodeKind::Import: {
      const auto *I = cast<ImportStmt>(S);
      std::string Text = "Import";
      appendAliases(Text, I->Names);
      line(Text);
      return;
    }
    case NodeKind::ImportFrom: {
      const auto *I = cast<ImportFromStmt>(S);
      std::string Text = "ImportFrom ";
      Text += I->Module;
      Text += ':';
      appendAliases(Text, I->Names);
      line(Text);
      return;
    }
    case NodeKind::Pass:
      line("Pass");
      return;
    case NodeKind::Break:
      line("Break");
      return;
    case NodeKind::Continue:
      line("Continue");
      return;
    case NodeKind::With: {
      const auto *W = cast<WithStmt>(S);
      line("With");
      Indented In(*this);
      for (const WithItem &Item : W->Items) {
        dump(Item.ContextExpr);
        if (Item.OptionalVars) {
          line("as:");
          Indented In2(*this);
          dump(Item.OptionalVars);
        }
      }
      dumpBody("body:", W->Body);
      return;
    }
    case NodeKind::Try: {
      const auto *T = cast<TryStmt>(S);
      line("Try");
      Indented In(*this);
      dumpBody("body:", T->Body);
      for (const ExceptHandler &H : T->Handlers) {
        std::string Header = "except";
        if (!H.Name.empty())
          Header.append(" as ").append(H.Name);
        line(Header + ":");
        Indented In2(*this);
        if (H.Type)
          dump(H.Type);
        for (const Stmt *B : H.Body)
          dump(B);
      }
      dumpBody("orelse:", T->OrElse);
      dumpBody("finally:", T->Finally);
      return;
    }
    case NodeKind::Raise:
      line("Raise");
      if (cast<RaiseStmt>(S)->Exc) {
        Indented In(*this);
        dump(cast<RaiseStmt>(S)->Exc);
      }
      return;
    case NodeKind::Global: {
      std::string Text = "Global";
      for (std::string_view N : cast<GlobalStmt>(S)->Names)
        Text.append(" ").append(N);
      line(Text);
      return;
    }
    case NodeKind::Delete: {
      line("Delete");
      Indented In(*this);
      for (const Expr *T : cast<DeleteStmt>(S)->Targets)
        dump(T);
      return;
    }
    case NodeKind::Assert: {
      line("Assert");
      Indented In(*this);
      dump(cast<AssertStmt>(S)->Test);
      return;
    }
    default:
      line("<unknown stmt>");
      return;
    }
  }

  void dumpExpr(const Expr *E) { line(exprToString(E)); }

  std::ostringstream &OS;
  int Depth = 0;
};

void renderExpr(const Expr *E, std::string &Out) {
  if (!E) {
    Out += "<null>";
    return;
  }
  switch (E->kind()) {
  case NodeKind::Name:
    Out += cast<NameExpr>(E)->Id;
    return;
  case NodeKind::NumberLit:
    Out += cast<NumberExpr>(E)->Spelling;
    return;
  case NodeKind::StringLit: {
    Out += '\'';
    for (char C : cast<StringExpr>(E)->Value) {
      if (C == '\n')
        Out += "\\n";
      else if (C == '\'')
        Out += "\\'";
      else
        Out += C;
    }
    Out += '\'';
    return;
  }
  case NodeKind::BoolLit:
    Out += cast<BoolExpr>(E)->Value ? "True" : "False";
    return;
  case NodeKind::NoneLit:
    Out += "None";
    return;
  case NodeKind::Attribute:
    renderExpr(cast<AttributeExpr>(E)->Value, Out);
    Out += '.';
    Out += cast<AttributeExpr>(E)->Attr;
    return;
  case NodeKind::Subscript:
    renderExpr(cast<SubscriptExpr>(E)->Value, Out);
    Out += '[';
    renderExpr(cast<SubscriptExpr>(E)->Index, Out);
    Out += ']';
    return;
  case NodeKind::Slice: {
    const auto *S = cast<SliceExpr>(E);
    if (S->Lower)
      renderExpr(S->Lower, Out);
    Out += ':';
    if (S->Upper)
      renderExpr(S->Upper, Out);
    if (S->Step) {
      Out += ':';
      renderExpr(S->Step, Out);
    }
    return;
  }
  case NodeKind::Call: {
    const auto *C = cast<CallExpr>(E);
    renderExpr(C->Callee, Out);
    Out += '(';
    bool First = true;
    for (const Expr *A : C->Args) {
      if (!First)
        Out += ", ";
      First = false;
      renderExpr(A, Out);
    }
    for (const KeywordArg &K : C->Keywords) {
      if (!First)
        Out += ", ";
      First = false;
      if (K.Name.empty())
        Out += "**";
      else {
        Out += K.Name;
        Out += '=';
      }
      renderExpr(K.Value, Out);
    }
    Out += ')';
    return;
  }
  case NodeKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    Out += '(';
    renderExpr(B->Lhs, Out);
    Out += ' ';
    Out += binaryOpSpelling(B->Op);
    Out += ' ';
    renderExpr(B->Rhs, Out);
    Out += ')';
    return;
  }
  case NodeKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    switch (U->Op) {
    case UnaryOp::Neg: Out += '-'; break;
    case UnaryOp::Pos: Out += '+'; break;
    case UnaryOp::Invert: Out += '~'; break;
    case UnaryOp::Not: Out += "not "; break;
    }
    renderExpr(U->Operand, Out);
    return;
  }
  case NodeKind::BoolOp: {
    const auto *B = cast<BoolOpExpr>(E);
    Out += '(';
    for (size_t I = 0; I < B->Operands.size(); ++I) {
      if (I)
        Out += B->IsAnd ? " and " : " or ";
      renderExpr(B->Operands[I], Out);
    }
    Out += ')';
    return;
  }
  case NodeKind::Compare: {
    const auto *C = cast<CompareExpr>(E);
    Out += '(';
    renderExpr(C->First, Out);
    static const char *Spellings[] = {"==", "!=", "<",      "<=",    ">",
                                      ">=", "is", "is not", "in",    "not in"};
    for (size_t I = 0; I < C->Ops.size(); ++I) {
      Out += ' ';
      Out += Spellings[static_cast<size_t>(C->Ops[I])];
      Out += ' ';
      renderExpr(C->Comparators[I], Out);
    }
    Out += ')';
    return;
  }
  case NodeKind::List:
  case NodeKind::Tuple:
  case NodeKind::Set: {
    static const char Brackets[][3] = {"[]", "()", "{}"}; // List, Tuple, Set.
    const char *Pair = Brackets[static_cast<size_t>(E->kind()) -
                                static_cast<size_t>(NodeKind::List)];
    std::span<Expr *> Elements = cast<SequenceExpr>(E)->Elements;
    Out += Pair[0];
    for (size_t I = 0; I < Elements.size(); ++I) {
      if (I)
        Out += ", ";
      renderExpr(Elements[I], Out);
    }
    Out += Pair[1];
    return;
  }
  case NodeKind::Dict: {
    const auto *D = cast<DictExpr>(E);
    Out += '{';
    for (size_t I = 0; I < D->Values.size(); ++I) {
      if (I)
        Out += ", ";
      if (D->Keys[I]) {
        renderExpr(D->Keys[I], Out);
        Out += ": ";
      } else {
        Out += "**";
      }
      renderExpr(D->Values[I], Out);
    }
    Out += '}';
    return;
  }
  case NodeKind::Lambda: {
    const auto *L = cast<LambdaExpr>(E);
    Out += "lambda ";
    for (size_t I = 0; I < L->Params.size(); ++I) {
      if (I)
        Out += ", ";
      Out += L->Params[I].Name;
    }
    Out += ": ";
    renderExpr(L->Body, Out);
    return;
  }
  case NodeKind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    Out += '(';
    renderExpr(C->Body, Out);
    Out += " if ";
    renderExpr(C->Cond, Out);
    Out += " else ";
    renderExpr(C->OrElse, Out);
    Out += ')';
    return;
  }
  case NodeKind::Starred:
    Out += '*';
    renderExpr(cast<StarredExpr>(E)->Value, Out);
    return;
  case NodeKind::Comprehension: {
    // A dict comprehension prints in braces; the others in brackets.
    const auto *C = cast<ComprehensionExpr>(E);
    Out += C->KeyElement ? '{' : '[';
    if (C->KeyElement) {
      renderExpr(C->KeyElement, Out);
      Out += ": ";
    }
    renderExpr(C->Element, Out);
    Out += " for ";
    renderExpr(C->Target, Out);
    Out += " in ";
    renderExpr(C->Iter, Out);
    if (C->Cond) {
      Out += " if ";
      renderExpr(C->Cond, Out);
    }
    Out += C->KeyElement ? '}' : ']';
    return;
  }
  case NodeKind::JoinedStr: {
    const auto *J = cast<JoinedStrExpr>(E);
    Out += "f'";
    for (char C : J->Text) {
      if (C == '\n')
        Out += "\\n";
      else if (C == '\'')
        Out += "\\'";
      else
        Out += C;
    }
    Out += '\'';
    return;
  }
  case NodeKind::Yield:
    Out += "yield";
    if (cast<YieldExpr>(E)->Value) {
      Out += ' ';
      renderExpr(cast<YieldExpr>(E)->Value, Out);
    }
    return;
  default:
    Out += "<unknown expr>";
    return;
  }
}

} // namespace

std::string seldon::pyast::exprToString(const Expr *E) {
  std::string Out;
  renderExpr(E, Out);
  return Out;
}

std::string seldon::pyast::dumpAst(const Node *Root) {
  std::ostringstream OS;
  Dumper D(OS);
  D.dump(Root);
  return OS.str();
}
