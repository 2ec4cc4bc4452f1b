//===- tests/frontend_fuzz_test.cpp - Seeded mutation fuzz of the frontend ===//
//
// Mutates generated Python modules with the shared mutator (Mutator.h)
// and runs each mutant through lex -> parse -> buildModuleGraph. Whatever
// the bytes, the frontend must return; the token stream must end with
// EndOfFile and never step backwards; every token must view the text it
// was lexed from and every name in the AST the context's arena; two
// builds of one mutant must encode to the same graph bytes; and the
// diagnostics must stay linear in the input size.
//
// Tokens and AST names are views, so a view that outlives its text is a
// use-after-free: scripts/check.sh runs this suite under ASan and UBSan,
// the short instantiation in its filter and the DISABLED_ long one with
// --gtest_also_run_disabled_tests.
//
//===----------------------------------------------------------------------===//

#include "Mutator.h"
#include "TestCorpus.h"

#include "propgraph/GraphCodec.h"
#include "pyast/AstPrinter.h"
#include "pyast/Lexer.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

using namespace seldon;
using namespace seldon::pyast;

namespace {

/// True if \p View lies inside \p Text (an empty view may sit at its end).
bool inside(std::string_view View, std::string_view Text) {
  return View.data() >= Text.data() &&
         View.data() + View.size() <= Text.data() + Text.size();
}

/// Checks that every name and literal text of the AST under \p N lies in
/// \p Ctx's arena.
class ViewChecker {
public:
  explicit ViewChecker(const AstContext &Ctx) : Ctx(Ctx) {}

  void node(const Node *N) {
    if (!N)
      return;
    if (const auto *M = dyn_cast<ModuleNode>(N))
      return stmts(M->Body);
    if (const auto *E = dyn_cast<Expr>(N))
      return expr(E);
    stmt(cast<Stmt>(N));
  }

private:
  void view(std::string_view V) {
    if (V.empty())
      return;
    EXPECT_TRUE(Ctx.contains(V.data()) && Ctx.contains(V.data() + V.size()))
        << "a view outside the arena: " << V;
  }
  template <typename T> void nodes(std::span<T *const> Items) {
    for (const T *Item : Items)
      node(Item);
  }
  void exprs(std::span<Expr *const> Items) { nodes(Items); }
  void stmts(std::span<Stmt *const> Body) { nodes(Body); }
  void params(std::span<const Param> Params) {
    for (const Param &P : Params) {
      view(P.Name);
      node(P.Default);
      node(P.Annotation);
    }
  }

  void expr(const Expr *E) {
    switch (E->kind()) {
    case NodeKind::Name: return view(cast<NameExpr>(E)->Id);
    case NodeKind::NumberLit: return view(cast<NumberExpr>(E)->Spelling);
    case NodeKind::StringLit: return view(cast<StringExpr>(E)->Value);
    case NodeKind::Attribute:
      view(cast<AttributeExpr>(E)->Attr);
      return node(cast<AttributeExpr>(E)->Value);
    case NodeKind::Subscript:
      node(cast<SubscriptExpr>(E)->Value);
      return node(cast<SubscriptExpr>(E)->Index);
    case NodeKind::Slice: {
      const auto *S = cast<SliceExpr>(E);
      node(S->Lower);
      node(S->Upper);
      return node(S->Step);
    }
    case NodeKind::Call: {
      const auto *C = cast<CallExpr>(E);
      node(C->Callee);
      exprs(C->Args);
      for (const KeywordArg &K : C->Keywords) {
        view(K.Name);
        node(K.Value);
      }
      return;
    }
    case NodeKind::Binary:
      node(cast<BinaryExpr>(E)->Lhs);
      return node(cast<BinaryExpr>(E)->Rhs);
    case NodeKind::Unary: return node(cast<UnaryExpr>(E)->Operand);
    case NodeKind::BoolOp: return exprs(cast<BoolOpExpr>(E)->Operands);
    case NodeKind::Compare:
      node(cast<CompareExpr>(E)->First);
      return exprs(cast<CompareExpr>(E)->Comparators);
    case NodeKind::List:
    case NodeKind::Tuple:
    case NodeKind::Set: return exprs(cast<SequenceExpr>(E)->Elements);
    case NodeKind::Dict:
      exprs(cast<DictExpr>(E)->Keys);
      return exprs(cast<DictExpr>(E)->Values);
    case NodeKind::Lambda:
      params(cast<LambdaExpr>(E)->Params);
      return node(cast<LambdaExpr>(E)->Body);
    case NodeKind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      node(C->Body);
      node(C->Cond);
      return node(C->OrElse);
    }
    case NodeKind::Starred: return node(cast<StarredExpr>(E)->Value);
    case NodeKind::Comprehension: {
      const auto *C = cast<ComprehensionExpr>(E);
      node(C->Element);
      node(C->KeyElement);
      node(C->Target);
      node(C->Iter);
      return node(C->Cond);
    }
    case NodeKind::JoinedStr:
      view(cast<JoinedStrExpr>(E)->Text);
      return exprs(cast<JoinedStrExpr>(E)->Interpolations);
    case NodeKind::Yield: return node(cast<YieldExpr>(E)->Value);
    default: return; // Bool and None literals hold no view.
    }
  }

  void stmt(const Stmt *S) {
    switch (S->kind()) {
    case NodeKind::ExprStmt: return node(cast<ExprStmt>(S)->Value);
    case NodeKind::Assign:
      exprs(cast<AssignStmt>(S)->Targets);
      return node(cast<AssignStmt>(S)->Value);
    case NodeKind::AugAssign:
      node(cast<AugAssignStmt>(S)->Target);
      return node(cast<AugAssignStmt>(S)->Value);
    case NodeKind::AnnAssign: {
      const auto *A = cast<AnnAssignStmt>(S);
      node(A->Target);
      node(A->Annotation);
      return node(A->Value);
    }
    case NodeKind::FunctionDef: {
      const auto *F = cast<FunctionDefStmt>(S);
      view(F->Name);
      params(F->Params);
      exprs(F->Decorators);
      node(F->ReturnAnnotation);
      return stmts(F->Body);
    }
    case NodeKind::ClassDef: {
      const auto *C = cast<ClassDefStmt>(S);
      view(C->Name);
      exprs(C->Bases);
      exprs(C->Decorators);
      return stmts(C->Body);
    }
    case NodeKind::Return: return node(cast<ReturnStmt>(S)->Value);
    case NodeKind::If:
      node(cast<IfStmt>(S)->Cond);
      stmts(cast<IfStmt>(S)->Then);
      return stmts(cast<IfStmt>(S)->Else);
    case NodeKind::While:
      node(cast<WhileStmt>(S)->Cond);
      stmts(cast<WhileStmt>(S)->Body);
      return stmts(cast<WhileStmt>(S)->Else);
    case NodeKind::For: {
      const auto *F = cast<ForStmt>(S);
      node(F->Target);
      node(F->Iter);
      stmts(F->Body);
      return stmts(F->Else);
    }
    case NodeKind::Import:
      for (const ImportAlias &A : cast<ImportStmt>(S)->Names) {
        view(A.Module);
        view(A.AsName);
      }
      return;
    case NodeKind::ImportFrom:
      view(cast<ImportFromStmt>(S)->Module);
      for (const ImportAlias &A : cast<ImportFromStmt>(S)->Names) {
        view(A.Module);
        view(A.AsName);
      }
      return;
    case NodeKind::With:
      for (const WithItem &Item : cast<WithStmt>(S)->Items) {
        node(Item.ContextExpr);
        node(Item.OptionalVars);
      }
      return stmts(cast<WithStmt>(S)->Body);
    case NodeKind::Try: {
      const auto *T = cast<TryStmt>(S);
      stmts(T->Body);
      for (const ExceptHandler &H : T->Handlers) {
        node(H.Type);
        view(H.Name);
        stmts(H.Body);
      }
      stmts(T->OrElse);
      return stmts(T->Finally);
    }
    case NodeKind::Raise:
      node(cast<RaiseStmt>(S)->Exc);
      return node(cast<RaiseStmt>(S)->Cause);
    case NodeKind::Global:
      for (std::string_view Name : cast<GlobalStmt>(S)->Names)
        view(Name);
      return;
    case NodeKind::Delete: return exprs(cast<DeleteStmt>(S)->Targets);
    case NodeKind::Assert:
      node(cast<AssertStmt>(S)->Test);
      return node(cast<AssertStmt>(S)->Msg);
    default: return; // pass, break, continue.
    }
  }

  const AstContext &Ctx;
};

/// Runs \p Text through the frontend and checks every invariant.
void checkMutant(const std::string &Text) {
  Lexer Lex(Text);
  std::vector<Token> Tokens = Lex.lexAll();
  ASSERT_FALSE(Tokens.empty());
  EXPECT_TRUE(Tokens.back().is(TokenKind::EndOfFile));
  uint32_t Line = 1, Col = 1;
  for (const Token &T : Tokens) {
    EXPECT_TRUE(T.Line > Line || (T.Line == Line && T.Col >= Col))
        << tokenKindName(T.Kind) << " at " << T.Line << ":" << T.Col
        << " after " << Line << ":" << Col;
    Line = T.Line;
    Col = T.Col;
    EXPECT_TRUE(inside(T.Text, Text)) << tokenKindName(T.Kind);
  }

  // Two builds of one mutant encode to the same bytes, and the
  // diagnostics stay linear in the input.
  pysem::Project Proj("fuzz");
  const pysem::ModuleInfo &M = Proj.addModule("fuzz/mutant.py", Text);
  std::vector<ParseError> Errors;
  std::string Graph = propgraph::encodeGraph(propgraph::buildModuleGraph(
      Proj, M, propgraph::BuildOptions(), &Errors));
  EXPECT_LE(Errors.size(), 4 * Text.size() + 16);
  EXPECT_EQ(propgraph::encodeGraph(propgraph::buildModuleGraph(Proj, M)),
            Graph);

  // The AST views only its context's arena, and every view reads back.
  AstContext Ctx;
  const ModuleNode *Module = parseSource(Ctx, Text);
  ViewChecker(Ctx).node(Module);
  EXPECT_FALSE(dumpAst(Module).empty());
}

/// Mutants are drawn from the modules of the corpus generated at the
/// run's seed.
class FrontendFuzzTest
    : public ::testing::TestWithParam<testutil::FuzzRun> {};

TEST_P(FrontendFuzzTest, MutantsKeepTheFrontendInvariants) {
  const testutil::FuzzRun Run = GetParam();
  corpus::Corpus Data = testutil::makeCorpus(Run.Seed, /*NumProjects=*/4);
  std::vector<const std::string *> Bases;
  for (const pysem::Project &P : Data.Projects)
    for (const pysem::ModuleInfo &M : P.modules())
      Bases.push_back(&M.Source);
  ASSERT_FALSE(Bases.empty());
  Rng Random(Run.Seed);
  for (size_t I = 0; I < Run.Mutants; ++I) {
    std::string Text = testutil::mutate(*Bases[I % Bases.size()], Random);
    checkMutant(Text);
    if (HasFailure()) {
      // Enough to rebuild the mutant as a regression case.
      ADD_FAILURE() << "mutant " << I << " of " << Bases.size()
                    << " bases failed; its text:\n"
                    << Text;
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Budget, FrontendFuzzTest,
                         ::testing::Values(testutil::FuzzRun{7, 400}));
INSTANTIATE_TEST_SUITE_P(DISABLED_Long, FrontendFuzzTest,
                         ::testing::Values(testutil::FuzzRun{1001, 20000},
                                           testutil::FuzzRun{1002, 20000}));

} // namespace
