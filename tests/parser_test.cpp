//===- tests/parser_test.cpp - Tests for the Python parser ----------------===//

#include "pyast/AstPrinter.h"
#include "pyast/Lexer.h"
#include "pyast/Parser.h"

#include <gtest/gtest.h>

using namespace seldon;
using namespace seldon::pyast;

namespace {

struct Parsed {
  AstContext Ctx;
  ModuleNode *Module = nullptr;
  std::vector<ParseError> Errors;
};

std::unique_ptr<Parsed> parse(std::string_view Source) {
  auto P = std::make_unique<Parsed>();
  P->Module = parseSource(P->Ctx, Source, &P->Errors);
  return P;
}

std::unique_ptr<Parsed> parseClean(std::string_view Source) {
  auto P = parse(Source);
  EXPECT_TRUE(P->Errors.empty())
      << "unexpected diagnostics; first: "
      << (P->Errors.empty() ? "" : P->Errors.front().Message);
  return P;
}

TEST(ParserTest, EmptyModule) {
  auto P = parseClean("");
  EXPECT_TRUE(P->Module->Body.empty());
}

TEST(ParserTest, SimpleAssignment) {
  auto P = parseClean("x = f(1)\n");
  ASSERT_EQ(P->Module->Body.size(), 1u);
  auto *A = dyn_cast<AssignStmt>(P->Module->Body[0]);
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->Targets.size(), 1u);
  EXPECT_TRUE(isa<NameExpr>(A->Targets[0]));
  EXPECT_TRUE(isa<CallExpr>(A->Value));
}

TEST(ParserTest, ChainedAssignment) {
  auto P = parseClean("a = b = g()\n");
  auto *A = cast<AssignStmt>(P->Module->Body[0]);
  EXPECT_EQ(A->Targets.size(), 2u);
}

TEST(ParserTest, AugmentedAssignment) {
  auto P = parseClean("total += price\n");
  auto *A = dyn_cast<AugAssignStmt>(P->Module->Body[0]);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Op, BinaryOp::Add);
}

TEST(ParserTest, AnnotatedAssignment) {
  auto P = parseClean("x: int = 3\ny: str\n");
  EXPECT_TRUE(isa<AnnAssignStmt>(P->Module->Body[0]));
  auto *Y = cast<AnnAssignStmt>(P->Module->Body[1]);
  EXPECT_EQ(Y->Value, nullptr);
}

TEST(ParserTest, AttributeChainRendering) {
  auto P = parseClean("v = request.files['f'].filename\n");
  auto *A = cast<AssignStmt>(P->Module->Body[0]);
  EXPECT_EQ(exprToString(A->Value), "request.files['f'].filename");
}

TEST(ParserTest, CallWithKeywords) {
  auto P = parseClean("app.route('/media/', methods=['POST'])\n");
  auto *E = cast<ExprStmt>(P->Module->Body[0]);
  auto *C = cast<CallExpr>(E->Value);
  EXPECT_EQ(C->Args.size(), 1u);
  ASSERT_EQ(C->Keywords.size(), 1u);
  EXPECT_EQ(C->Keywords[0].Name, "methods");
}

TEST(ParserTest, StarArgsAndKwargsAtCallSite) {
  auto P = parseClean("f(*args, **kwargs)\n");
  auto *C = cast<CallExpr>(cast<ExprStmt>(P->Module->Body[0])->Value);
  ASSERT_EQ(C->Args.size(), 1u);
  EXPECT_TRUE(isa<StarredExpr>(C->Args[0]));
  ASSERT_EQ(C->Keywords.size(), 1u);
  EXPECT_TRUE(C->Keywords[0].Name.empty());
}

TEST(ParserTest, FunctionDef) {
  auto P = parseClean("def media(f, size=10, *args, **kw):\n"
                      "    return f\n");
  auto *F = dyn_cast<FunctionDefStmt>(P->Module->Body[0]);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Name, "media");
  ASSERT_EQ(F->Params.size(), 4u);
  EXPECT_EQ(F->Params[0].Name, "f");
  EXPECT_NE(F->Params[1].Default, nullptr);
  EXPECT_TRUE(F->Params[2].IsVarArgs);
  EXPECT_TRUE(F->Params[3].IsKwArgs);
  ASSERT_EQ(F->Body.size(), 1u);
  EXPECT_TRUE(isa<ReturnStmt>(F->Body[0]));
}

TEST(ParserTest, FunctionDefWithAnnotations) {
  auto P = parseClean("def f(a: int, b: str = 'x') -> bool:\n    pass\n");
  auto *F = cast<FunctionDefStmt>(P->Module->Body[0]);
  EXPECT_NE(F->Params[0].Annotation, nullptr);
  EXPECT_NE(F->Params[1].Default, nullptr);
  EXPECT_NE(F->ReturnAnnotation, nullptr);
}

TEST(ParserTest, DecoratedFunction) {
  auto P = parseClean("@app.route('/x')\n"
                      "@login_required\n"
                      "def view():\n"
                      "    pass\n");
  auto *F = cast<FunctionDefStmt>(P->Module->Body[0]);
  ASSERT_EQ(F->Decorators.size(), 2u);
  EXPECT_TRUE(isa<CallExpr>(F->Decorators[0]));
  EXPECT_TRUE(isa<NameExpr>(F->Decorators[1]));
}

TEST(ParserTest, ClassDefWithBasesAndMethods) {
  auto P = parseClean("class ESCPOSDriver(ThreadDriver):\n"
                      "    def status(self, eprint):\n"
                      "        self.receipt('<div>' + msg + '</div>')\n");
  auto *C = dyn_cast<ClassDefStmt>(P->Module->Body[0]);
  ASSERT_NE(C, nullptr);
  ASSERT_EQ(C->Bases.size(), 1u);
  ASSERT_EQ(C->Body.size(), 1u);
  auto *M = dyn_cast<FunctionDefStmt>(C->Body[0]);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Params.size(), 2u);
}

TEST(ParserTest, ClassWithKeywordBaseSkipsMetaclass) {
  auto P = parseClean("class A(B, metaclass=Meta):\n    pass\n");
  auto *C = cast<ClassDefStmt>(P->Module->Body[0]);
  EXPECT_EQ(C->Bases.size(), 1u);
}

TEST(ParserTest, IfElifElse) {
  auto P = parseClean("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n");
  auto *I = cast<IfStmt>(P->Module->Body[0]);
  ASSERT_EQ(I->Else.size(), 1u);
  auto *Elif = dyn_cast<IfStmt>(I->Else[0]);
  ASSERT_NE(Elif, nullptr);
  EXPECT_EQ(Elif->Else.size(), 1u);
}

TEST(ParserTest, WhileAndForLoops) {
  auto P = parseClean("while ok:\n    step()\nfor i in items:\n    use(i)\n");
  EXPECT_TRUE(isa<WhileStmt>(P->Module->Body[0]));
  auto *F = cast<ForStmt>(P->Module->Body[1]);
  EXPECT_TRUE(isa<NameExpr>(F->Target));
}

TEST(ParserTest, ForWithTupleTarget) {
  auto P = parseClean("for k, v in d.items():\n    use(k, v)\n");
  auto *F = cast<ForStmt>(P->Module->Body[0]);
  EXPECT_EQ(F->Target->kind(), NodeKind::Tuple);
}

TEST(ParserTest, Imports) {
  auto P = parseClean("import os.path, sys as system\n"
                      "from flask import request, session as sess\n"
                      "from . import models\n"
                      "from werkzeug import *\n");
  auto *I = cast<ImportStmt>(P->Module->Body[0]);
  ASSERT_EQ(I->Names.size(), 2u);
  EXPECT_EQ(I->Names[0].Module, "os.path");
  EXPECT_EQ(I->Names[1].AsName, "system");
  auto *F = cast<ImportFromStmt>(P->Module->Body[1]);
  EXPECT_EQ(F->Module, "flask");
  ASSERT_EQ(F->Names.size(), 2u);
  EXPECT_EQ(F->Names[1].AsName, "sess");
  auto *Rel = cast<ImportFromStmt>(P->Module->Body[2]);
  EXPECT_EQ(Rel->Level, 1u);
  auto *Star = cast<ImportFromStmt>(P->Module->Body[3]);
  ASSERT_EQ(Star->Names.size(), 1u);
  EXPECT_EQ(Star->Names[0].Module, "*");
}

TEST(ParserTest, WithStatement) {
  auto P = parseClean("with open(p) as f, lock:\n    f.write(data)\n");
  auto *W = cast<WithStmt>(P->Module->Body[0]);
  ASSERT_EQ(W->Items.size(), 2u);
  EXPECT_NE(W->Items[0].OptionalVars, nullptr);
  EXPECT_EQ(W->Items[1].OptionalVars, nullptr);
}

TEST(ParserTest, TryExceptFinally) {
  auto P = parseClean("try:\n    risky()\n"
                      "except ValueError as e:\n    handle(e)\n"
                      "except:\n    pass\n"
                      "else:\n    ok()\n"
                      "finally:\n    cleanup()\n");
  auto *T = cast<TryStmt>(P->Module->Body[0]);
  ASSERT_EQ(T->Handlers.size(), 2u);
  EXPECT_EQ(T->Handlers[0].Name, "e");
  EXPECT_EQ(T->Handlers[1].Type, nullptr);
  EXPECT_EQ(T->OrElse.size(), 1u);
  EXPECT_EQ(T->Finally.size(), 1u);
}

TEST(ParserTest, OperatorPrecedence) {
  auto P = parseClean("x = 1 + 2 * 3\n");
  auto *A = cast<AssignStmt>(P->Module->Body[0]);
  EXPECT_EQ(exprToString(A->Value), "(1 + (2 * 3))");
}

TEST(ParserTest, PowerRightAssociative) {
  auto P = parseClean("x = 2 ** 3 ** 2\n");
  auto *A = cast<AssignStmt>(P->Module->Body[0]);
  EXPECT_EQ(exprToString(A->Value), "(2 ** (3 ** 2))");
}

TEST(ParserTest, UnaryBindsLooserThanPower) {
  auto P = parseClean("x = -y ** 2\n");
  auto *A = cast<AssignStmt>(P->Module->Body[0]);
  EXPECT_EQ(exprToString(A->Value), "-(y ** 2)");
}

TEST(ParserTest, BoolOpsAndComparisons) {
  auto P = parseClean("ok = a < b <= c and not d or e in f\n");
  auto *A = cast<AssignStmt>(P->Module->Body[0]);
  auto *Or = dyn_cast<BoolOpExpr>(A->Value);
  ASSERT_NE(Or, nullptr);
  EXPECT_FALSE(Or->IsAnd);
  EXPECT_EQ(Or->Operands.size(), 2u);
}

TEST(ParserTest, ConditionalExpression) {
  auto P = parseClean("v = a if cond else b\n");
  auto *A = cast<AssignStmt>(P->Module->Body[0]);
  EXPECT_TRUE(isa<ConditionalExpr>(A->Value));
}

TEST(ParserTest, LambdaExpression) {
  auto P = parseClean("f = lambda x, y=2: x + y\n");
  auto *A = cast<AssignStmt>(P->Module->Body[0]);
  auto *L = dyn_cast<LambdaExpr>(A->Value);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->Params.size(), 2u);
}

TEST(ParserTest, Displays) {
  auto P = parseClean("l = [a, b]\nt = (a, b)\ns = {a, b}\nd = {k: v}\n"
                      "e = []\net = ()\ned = {}\n");
  auto ValueOf = [&](size_t I) {
    return cast<AssignStmt>(P->Module->Body[I])->Value;
  };
  EXPECT_EQ(ValueOf(0)->kind(), NodeKind::List);
  EXPECT_EQ(ValueOf(1)->kind(), NodeKind::Tuple);
  EXPECT_EQ(ValueOf(2)->kind(), NodeKind::Set);
  EXPECT_TRUE(isa<DictExpr>(ValueOf(3)));
  EXPECT_EQ(ValueOf(4)->kind(), NodeKind::List);
  EXPECT_EQ(ValueOf(5)->kind(), NodeKind::Tuple);
  EXPECT_TRUE(isa<DictExpr>(ValueOf(6)));
}

TEST(ParserTest, BareTupleAndUnpacking) {
  auto P = parseClean("a, b = 1, 2\n");
  auto *A = cast<AssignStmt>(P->Module->Body[0]);
  EXPECT_EQ(A->Targets[0]->kind(), NodeKind::Tuple);
  EXPECT_EQ(A->Value->kind(), NodeKind::Tuple);
}

TEST(ParserTest, Comprehensions) {
  auto P = parseClean("l = [f(x) for x in xs if p(x)]\n"
                      "s = {x for x in xs}\n"
                      "d = {k: v for k, v in items}\n"
                      "g = (y for y in ys)\n"
                      "total = sum(x * x for x in xs)\n");
  for (int I = 0; I < 4; ++I) {
    auto *A = cast<AssignStmt>(P->Module->Body[I]);
    EXPECT_TRUE(isa<ComprehensionExpr>(A->Value)) << "stmt " << I;
  }
  auto *Sum = cast<CallExpr>(cast<AssignStmt>(P->Module->Body[4])->Value);
  ASSERT_EQ(Sum->Args.size(), 1u);
  EXPECT_TRUE(isa<ComprehensionExpr>(Sum->Args[0]));
}

TEST(ParserTest, DictComprehensionPrintsInBracesAndReparses) {
  // parse, print, parse: the printed dict comprehension parses with no
  // diagnostic to the same dump.
  auto First = parseClean("d = {k: v for k, v in items if k}\n");
  std::string Printed =
      exprToString(cast<AssignStmt>(First->Module->Body[0])->Value);
  EXPECT_EQ(Printed, "{k: v for (k, v) in items if k}");
  auto Second = parseClean("d = " + Printed + "\n");
  EXPECT_EQ(dumpAst(Second->Module), dumpAst(First->Module));
}

TEST(ParserTest, ComprehensionClausesNestAndJoin) {
  // A further `for` clause nests as an inner comprehension that is the
  // outer one's element; several `if` clauses join with `and`.
  auto P = parseClean("a = [x for row in grid for x in row]\n"
                      "b = [x for x in grid if x if y]\n"
                      "c = {k: v for d in ds if d for k, v in d}\n"
                      "e = f(x for a in b for x in a)\n");
  auto ValueOf = [&](size_t I) {
    return cast<AssignStmt>(P->Module->Body[I])->Value;
  };
  auto *Outer = cast<ComprehensionExpr>(ValueOf(0));
  EXPECT_EQ(exprToString(Outer->Iter), "grid");
  auto *Inner = dyn_cast<ComprehensionExpr>(Outer->Element);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(exprToString(Inner->Iter), "row");
  EXPECT_EQ(exprToString(Inner->Element), "x");

  auto *Joined = cast<ComprehensionExpr>(ValueOf(1));
  EXPECT_EQ(exprToString(Joined->Cond), "(x and y)");

  auto *Dict = cast<ComprehensionExpr>(ValueOf(2));
  EXPECT_EQ(Dict->KeyElement, nullptr);
  EXPECT_EQ(exprToString(Dict->Cond), "d");
  auto *DictInner = cast<ComprehensionExpr>(Dict->Element);
  EXPECT_EQ(exprToString(DictInner->KeyElement), "k");
  EXPECT_EQ(exprToString(DictInner->Element), "v");

  auto *Gen = cast<CallExpr>(ValueOf(3));
  ASSERT_EQ(Gen->Args.size(), 1u);
  EXPECT_TRUE(isa<ComprehensionExpr>(
      cast<ComprehensionExpr>(Gen->Args[0])->Element));

  // One clause parses as it always has: `if a and b` and `if a if b` dump
  // alike.
  EXPECT_EQ(dumpAst(parseClean("[x for x in g if a and b]\n")->Module),
            dumpAst(parseClean("[x for x in g if a if b]\n")->Module));
}

TEST(ParserTest, BinaryOperatorsNestByPrecedence) {
  auto P = parseClean("x = a | b ^ c & d << e + f * g\n"
                      "y = a * b + c << d & e ^ f | g\n"
                      "z = a - b - c // d % e @ f\n");
  auto ValueOf = [&](size_t I) {
    return cast<AssignStmt>(P->Module->Body[I])->Value;
  };
  EXPECT_EQ(exprToString(ValueOf(0)),
            "(a | (b ^ (c & (d << (e + (f * g))))))");
  EXPECT_EQ(exprToString(ValueOf(1)),
            "((((((a * b) + c) << d) & e) ^ f) | g)");
  EXPECT_EQ(exprToString(ValueOf(2)), "((a - b) - (((c // d) % e) @ f))");
  // Each node sits at its left operand's first token.
  auto *Or = cast<BinaryExpr>(ValueOf(0));
  EXPECT_EQ(Or->loc().Col, 5u);
  EXPECT_EQ(cast<BinaryExpr>(Or->Rhs)->loc().Col, 9u);
  auto *Sub = cast<BinaryExpr>(ValueOf(2));
  EXPECT_EQ(cast<BinaryExpr>(Sub->Rhs)->loc().Col, 13u);
}

TEST(ParserTest, AsyncFormsParseAsTheirPlainForms) {
  auto Async = parseClean("@app.get('/items')\n"
                          "async def handler(req):\n"
                          "    data = await web.read()\n"
                          "    async with db.tx() as t, lock:\n"
                          "        t.run(await t.fetch(data) ** 2)\n"
                          "    async for row in db.rows():\n"
                          "        sink(row)\n"
                          "    return [x async for x in aiter()]\n"
                          "async def bare(): return -await f()\n");
  auto Plain = parseClean("@app.get('/items')\n"
                          "def handler(req):\n"
                          "    data = web.read()\n"
                          "    with db.tx() as t, lock:\n"
                          "        t.run(t.fetch(data) ** 2)\n"
                          "    for row in db.rows():\n"
                          "        sink(row)\n"
                          "    return [x for x in aiter()]\n"
                          "def bare(): return -f()\n");
  EXPECT_EQ(dumpAst(Async->Module), dumpAst(Plain->Module));
  // The statement sits at its `async`, as in Python's own AST.
  EXPECT_EQ(Async->Module->Body[1]->loc().Col, 1u);
  EXPECT_EQ(cast<FunctionDefStmt>(Async->Module->Body[0])->Decorators.size(),
            1u);
}

TEST(ParserTest, AsyncAndAwaitStayNamesElsewhere) {
  // Older code uses both words as names; only the positions above read
  // them as keywords, and the lexer never does.
  const char *Source = "async = 1\n"
                       "await = async + 1\n"
                       "f(await, async)\n"
                       "await.x = async.run()\n"
                       "y = [await for await in async]\n";
  auto P = parseClean(Source);
  EXPECT_EQ(dumpAst(P->Module), "Module\n"
                                "  Assign\n"
                                "    target:\n"
                                "      async\n"
                                "    value:\n"
                                "      1\n"
                                "  Assign\n"
                                "    target:\n"
                                "      await\n"
                                "    value:\n"
                                "      (async + 1)\n"
                                "  ExprStmt\n"
                                "    f(await, async)\n"
                                "  Assign\n"
                                "    target:\n"
                                "      await.x\n"
                                "    value:\n"
                                "      async.run()\n"
                                "  Assign\n"
                                "    target:\n"
                                "      y\n"
                                "    value:\n"
                                "      [await for await in async]\n");
  Lexer Lex(Source);
  for (const Token &T : Lex.lexAll()) {
    if (T.Text == "async" || T.Text == "await") {
      EXPECT_TRUE(T.is(TokenKind::Name)) << T.Line << ":" << T.Col;
    }
  }
}

TEST(ParserTest, SubscriptSlices) {
  auto P = parseClean("a = x[1:2]\nb = x[:]\nc = x[::2]\nd = x[i, j]\n");
  auto *A = cast<AssignStmt>(P->Module->Body[0]);
  EXPECT_TRUE(isa<SliceExpr>(cast<SubscriptExpr>(A->Value)->Index));
  auto *D = cast<AssignStmt>(P->Module->Body[3]);
  EXPECT_EQ(cast<SubscriptExpr>(D->Value)->Index->kind(), NodeKind::Tuple);
}

TEST(ParserTest, SemicolonSeparatedStatements) {
  auto P = parseClean("a = 1; b = 2\n");
  // Folded into a wrapper; both assignments must exist in the AST.
  std::string Dump = dumpAst(P->Module);
  EXPECT_NE(Dump.find("a"), std::string::npos);
  EXPECT_NE(Dump.find("b"), std::string::npos);
}

TEST(ParserTest, InlineSuite) {
  auto P = parseClean("if x: do()\n");
  auto *I = cast<IfStmt>(P->Module->Body[0]);
  ASSERT_EQ(I->Then.size(), 1u);
}

TEST(ParserTest, GlobalAndDel) {
  auto P = parseClean("global a, b\ndel c\n");
  auto *G = cast<GlobalStmt>(P->Module->Body[0]);
  EXPECT_EQ(G->Names.size(), 2u);
  EXPECT_TRUE(isa<DeleteStmt>(P->Module->Body[1]));
}

TEST(ParserTest, YieldStatementAndExpression) {
  auto P = parseClean("def gen():\n    yield 1\n    x = yield\n");
  auto *F = cast<FunctionDefStmt>(P->Module->Body[0]);
  ASSERT_EQ(F->Body.size(), 2u);
  EXPECT_TRUE(isa<YieldExpr>(cast<ExprStmt>(F->Body[0])->Value));
}

TEST(ParserTest, RecoversFromBadLine) {
  auto P = parse("x = 1\ny = = 2\nz = 3\n");
  EXPECT_FALSE(P->Errors.empty());
  // The two good statements must survive.
  int Assigns = 0;
  for (Stmt *S : P->Module->Body)
    Assigns += isa<AssignStmt>(S);
  EXPECT_GE(Assigns, 2);
}

TEST(ParserTest, ErrorHasLocation) {
  auto P = parse("def f(:\n    pass\n");
  ASSERT_FALSE(P->Errors.empty());
  EXPECT_EQ(P->Errors.front().Line, 1u);
}

TEST(ParserTest, PaperFig2aParses) {
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
  auto P = parseClean(Source);
  ASSERT_EQ(P->Module->Body.size(), 6u);
  auto *F = dyn_cast<FunctionDefStmt>(P->Module->Body[5]);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Name, "media");
  EXPECT_EQ(F->Decorators.size(), 1u);
  EXPECT_EQ(F->Body.size(), 4u);
}

TEST(ParserTest, DeeplyNestedStructures) {
  std::string Source = "x = ";
  for (int I = 0; I < 30; ++I)
    Source += "f(";
  Source += "1";
  for (int I = 0; I < 30; ++I)
    Source += ")";
  Source += "\n";
  auto P = parseClean(Source);
  EXPECT_EQ(P->Module->Body.size(), 1u);
}

// Property-style sweep: every statement form round-trips through the dumper
// without crashing and without diagnostics.
class ParserSmokeTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ParserSmokeTest, ParsesCleanAndDumps) {
  auto P = parseClean(GetParam());
  std::string Dump = dumpAst(P->Module);
  EXPECT_FALSE(Dump.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Statements, ParserSmokeTest,
    ::testing::Values(
        "pass\n", "break\n", "continue\n", "x = 1\n", "x += 1\n",
        "return\n", "raise\n", "raise ValueError('x')\n",
        "raise Wrapped() from err\n", "assert x, 'msg'\n",
        "f()\n", "x.y.z(1, 2)[3] = 4\n", "a = b = c = d\n",
        "x = a if b else c\n", "x = lambda: 0\n",
        "x = {**base, 'k': 1}\n", "print(*xs)\n",
        "def f():\n    '''docstring'''\n    pass\n",
        "class C:\n    pass\n",
        "class C(object):\n    x = 1\n    def m(self):\n        return self.x\n",
        "for i in range(10):\n    pass\nelse:\n    done()\n",
        "while True:\n    break\nelse:\n    pass\n",
        "x = y[1:2, ::3]\n", "x = (yield v)\n",
        "with a() as b:\n    pass\n",
        "if a:\n    pass\nelif b:\n    pass\n",
        "x = not a is not b\n", "x = v not in c\n",
        "t = a,\n", "x, = f()\n", "def f(*, kw=1):\n    pass\n"));

TEST(ParserTest, DeeplyNestedExpressionRecoversInsteadOfOverflowing) {
  // ~10k parenthesis levels: a naive recursive descent would blow the
  // native stack; the depth limit must turn this into an ordinary
  // recovered syntax error.
  constexpr int Depth = 10'000;
  std::string Source = "x = ";
  Source.append(Depth, '(');
  Source += "1";
  Source.append(Depth, ')');
  Source += "\n";

  auto P = parse(Source);
  ASSERT_NE(P->Module, nullptr);
  ASSERT_FALSE(P->Errors.empty());
  bool SawDepthError = false;
  for (const ParseError &E : P->Errors)
    if (E.Message.find("nesting too deep") != std::string::npos)
      SawDepthError = true;
  EXPECT_TRUE(SawDepthError)
      << "first diagnostic: " << P->Errors.front().Message;
}

TEST(ParserTest, DeeplyNestedStatementsRecoverInsteadOfOverflowing) {
  // 600 levels is comfortably past MaxNestingDepth while keeping the
  // (quadratic, indentation-dominated) source small.
  constexpr int Depth = 600;
  std::string Source;
  for (int I = 0; I < Depth; ++I) {
    Source.append(static_cast<size_t>(I) * 4, ' ');
    Source += "if x:\n";
  }
  Source.append(static_cast<size_t>(Depth) * 4, ' ');
  Source += "pass\n";

  auto P = parse(Source);
  ASSERT_NE(P->Module, nullptr);
  ASSERT_FALSE(P->Errors.empty());
}

TEST(ParserTest, NestingJustBelowTheLimitStaysClean) {
  constexpr int Depth = 200; // MaxNestingDepth is 256.
  std::string Source = "x = ";
  Source.append(Depth, '(');
  Source += "1";
  Source.append(Depth, ')');
  Source += "\n";
  auto P = parseClean(Source);
  ASSERT_EQ(P->Module->Body.size(), 1u);
}

} // namespace
