//===- tests/fstring_test.cpp - f-string interpolation support ------------===//
//
// Taint flows through f-strings in real web code (`f"SELECT {user_input}"`
// is the classic SQL-injection shape), so the frontend models `{...}`
// interpolations as information flow.
//
//===----------------------------------------------------------------------===//

#include "propgraph/GraphBuilder.h"
#include "pyast/AstPrinter.h"
#include "pyast/Lexer.h"
#include "pyast/Parser.h"
#include "pysem/Project.h"
#include "spec/SeedSpec.h"
#include "taint/TaintAnalyzer.h"

#include <gtest/gtest.h>

using namespace seldon;
using namespace seldon::pyast;

namespace {

TEST(FStringLexerTest, FlagSetOnlyForFStrings) {
  Lexer L("a = f'x{v}'\nb = 'plain'\nc = F\"up\"\nd = rf'raw{v}'\n");
  auto Tokens = L.lexAll();
  std::vector<bool> Flags;
  for (const Token &T : Tokens)
    if (T.is(TokenKind::String))
      Flags.push_back(T.IsFString);
  ASSERT_EQ(Flags.size(), 4u);
  EXPECT_TRUE(Flags[0]);
  EXPECT_FALSE(Flags[1]);
  EXPECT_TRUE(Flags[2]);
  EXPECT_TRUE(Flags[3]);
}

struct ParsedExpr {
  AstContext Ctx;
  const Expr *E = nullptr;
  std::vector<ParseError> Errors;

  explicit ParsedExpr(std::string_view Source) {
    ModuleNode *M = parseSource(Ctx, Source, &Errors);
    if (M->Body.size() == 1)
      if (const auto *A = dyn_cast<AssignStmt>(M->Body[0]))
        E = A->Value;
  }
};

TEST(FStringParserTest, SingleInterpolation) {
  ParsedExpr P("x = f'hello {name}!'\n");
  EXPECT_TRUE(P.Errors.empty());
  const auto *J = dyn_cast<JoinedStrExpr>(P.E);
  ASSERT_NE(J, nullptr);
  ASSERT_EQ(J->Interpolations.size(), 1u);
  EXPECT_EQ(exprToString(J->Interpolations[0]), "name");
}

TEST(FStringParserTest, MultipleAndComplexInterpolations) {
  ParsedExpr P("x = f'{a} and {obj.field} and {d[\"k\"]} and {f(1)}'\n");
  EXPECT_TRUE(P.Errors.empty());
  const auto *J = dyn_cast<JoinedStrExpr>(P.E);
  ASSERT_NE(J, nullptr);
  ASSERT_EQ(J->Interpolations.size(), 4u);
  EXPECT_EQ(exprToString(J->Interpolations[1]), "obj.field");
  EXPECT_EQ(exprToString(J->Interpolations[2]), "d['k']");
  EXPECT_TRUE(isa<CallExpr>(J->Interpolations[3]));
}

TEST(FStringParserTest, FormatSpecAndConversionStripped) {
  ParsedExpr P("x = f'{price:.2f} {name!r} {pct:{width}.{prec}}'\n");
  EXPECT_TRUE(P.Errors.empty());
  const auto *J = dyn_cast<JoinedStrExpr>(P.E);
  ASSERT_NE(J, nullptr);
  ASSERT_EQ(J->Interpolations.size(), 3u);
  EXPECT_EQ(exprToString(J->Interpolations[0]), "price");
  EXPECT_EQ(exprToString(J->Interpolations[1]), "name");
  EXPECT_EQ(exprToString(J->Interpolations[2]), "pct");
}

TEST(FStringParserTest, DebugEqualsForm) {
  ParsedExpr P("x = f'{value=}'\n");
  EXPECT_TRUE(P.Errors.empty());
  const auto *J = dyn_cast<JoinedStrExpr>(P.E);
  ASSERT_NE(J, nullptr);
  ASSERT_EQ(J->Interpolations.size(), 1u);
  EXPECT_EQ(exprToString(J->Interpolations[0]), "value");
}

TEST(FStringParserTest, DoubledBracesAreLiteral) {
  ParsedExpr P("x = f'{{literal}} {real}'\n");
  EXPECT_TRUE(P.Errors.empty());
  const auto *J = dyn_cast<JoinedStrExpr>(P.E);
  ASSERT_NE(J, nullptr);
  ASSERT_EQ(J->Interpolations.size(), 1u);
  EXPECT_EQ(exprToString(J->Interpolations[0]), "real");
}

TEST(FStringParserTest, ConcatenationWithPlainString) {
  ParsedExpr P("x = 'SELECT ' f'{col} FROM t'\n");
  EXPECT_TRUE(P.Errors.empty());
  const auto *J = dyn_cast<JoinedStrExpr>(P.E);
  ASSERT_NE(J, nullptr);
  EXPECT_EQ(J->Interpolations.size(), 1u);
  EXPECT_EQ(J->Text, "SELECT {col} FROM t");
}

TEST(FStringParserTest, UnterminatedInterpolationReported) {
  ParsedExpr P("x = f'{oops'\n");
  EXPECT_FALSE(P.Errors.empty());
}

TEST(FStringParserTest, BadInnerExpressionReported) {
  ParsedExpr P("x = f'{1 +}'\n");
  EXPECT_FALSE(P.Errors.empty());
}

TEST(FStringParserTest, NotInterpolatedWhenPlain) {
  ParsedExpr P("x = 'literal {not_a_field}'\n");
  EXPECT_TRUE(isa<StringExpr>(P.E));
}

//===----------------------------------------------------------------------===//
// Dataflow through f-strings
//===----------------------------------------------------------------------===//

struct FlowFixture {
  pysem::Project Proj;
  propgraph::PropagationGraph Graph;

  explicit FlowFixture(std::string_view Source) {
    const pysem::ModuleInfo &M = Proj.addModule("app.py", Source);
    std::vector<ParseError> Errors;
    Graph = propgraph::buildModuleGraph(Proj, M, propgraph::BuildOptions(),
                                        &Errors);
    EXPECT_TRUE(Errors.empty());
  }

  propgraph::EventId theEvent(const std::string &Rep) const {
    for (const propgraph::Event &E : Graph.events())
      if (E.primaryRep() == Rep)
        return E.Id;
    ADD_FAILURE() << "no event " << Rep;
    return propgraph::InvalidEvent;
  }
};

TEST(FStringFlowTest, SqlInjectionThroughFString) {
  FlowFixture F("import web\nimport db\n"
                "term = web.read()\n"
                "db.exec(f'SELECT * FROM t WHERE c = {term}')\n");
  auto Reach = F.Graph.reachableFrom(F.theEvent("web.read()"));
  propgraph::EventId Sink = F.theEvent("db.exec()");
  EXPECT_TRUE(std::find(Reach.begin(), Reach.end(), Sink) != Reach.end());
}

TEST(FStringFlowTest, TaintAnalyzerSeesFStringFlow) {
  FlowFixture F("import web\nimport db\n"
                "term = web.read()\n"
                "query = f'SELECT {term}'\n"
                "db.exec(query)\n");
  spec::SeedSpec Seed =
      spec::SeedSpec::parse("o: web.read()\ni: db.exec()\n");
  taint::RoleResolver Roles(&Seed.Spec, nullptr);
  taint::TaintAnalyzer Analyzer(F.Graph);
  EXPECT_EQ(Analyzer.analyze(Roles).size(), 1u);
}

TEST(FStringFlowTest, LiteralOnlyFStringCarriesNoTaint) {
  FlowFixture F("import web\nimport db\n"
                "term = web.read()\n"
                "db.exec(f'SELECT 1')\n");
  auto Reach = F.Graph.reachableFrom(F.theEvent("web.read()"));
  propgraph::EventId Sink = F.theEvent("db.exec()");
  EXPECT_TRUE(std::find(Reach.begin(), Reach.end(), Sink) == Reach.end());
}

TEST(FStringFlowTest, CallInsideInterpolationBecomesEvent) {
  FlowFixture F("import web\nimport db\n"
                "db.exec(f'q={web.read()}')\n");
  EXPECT_NE(F.theEvent("web.read()"), propgraph::InvalidEvent);
  auto Reach = F.Graph.reachableFrom(F.theEvent("web.read()"));
  EXPECT_TRUE(std::find(Reach.begin(), Reach.end(),
                        F.theEvent("db.exec()")) != Reach.end());
}

/// The `=` debug form with whitespace after the `=` (Python 3.8): each
/// field is the expression `z`, so the read reaches the sink.
TEST(FStringFlowTest, DebugFieldWithSpacesCarriesFlow) {
  for (const char *Field :
       {"{z=}", "{z =}", "{z = }", "{z= }", "{z = !r}", "{z = :>8}"}) {
    SCOPED_TRACE(Field);
    FlowFixture F(std::string("import web\nimport db\n"
                              "z = web.read()\n"
                              "db.exec(f'") +
                  Field + "')\n");
    auto Reach = F.Graph.reachableFrom(F.theEvent("web.read()"));
    EXPECT_TRUE(std::find(Reach.begin(), Reach.end(),
                          F.theEvent("db.exec()")) != Reach.end());
  }
}

/// `==` inside a field is a comparison, not a debug `=`.
TEST(FStringFlowTest, EqualityInFieldStaysAComparison) {
  ParsedExpr P("x = f'{a == b}'\n");
  EXPECT_TRUE(P.Errors.empty());
  const auto *J = dyn_cast<JoinedStrExpr>(P.E);
  ASSERT_NE(J, nullptr);
  ASSERT_EQ(J->Interpolations.size(), 1u);
  EXPECT_TRUE(isa<CompareExpr>(J->Interpolations[0]));
}

} // namespace
