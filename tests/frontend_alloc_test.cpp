//===- tests/frontend_alloc_test.cpp - Heap allocations of the frontend ---===//
//
// The frontend's memory contract, counted through a replaced global
// operator new: lexing a module allocates only its token vector and its
// indentation stack, parsing it allocates only the AST arena's blocks
// plus a constant that does not grow with the module, and the graph walk
// after the parse allocates a few blocks per event, not one per
// expression, name lookup or path option. Counts repeat exactly from run
// to run, so a regression here shows whatever the host's speed. The
// counting operator new trips ASan, so this binary stays out of the
// sanitizer legs.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "propgraph/GraphBuilder.h"
#include "pyast/Lexer.h"
#include "pyast/Parser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

using namespace seldon;
using namespace seldon::pyast;

static std::atomic<uint64_t> AllocCount{0};

void *operator new(size_t Size) {
  AllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }

namespace {

/// Generated modules concatenated until the text holds at least
/// \p Statements logical lines (one statement or block header each).
std::string generatedModule(size_t Statements) {
  corpus::Corpus Data = testutil::makeCorpus(31, /*NumProjects=*/200);
  std::string Text;
  size_t Lines = 0;
  for (const pysem::Project &P : Data.Projects)
    for (const pysem::ModuleInfo &M : P.modules()) {
      if (Lines >= Statements)
        return Text;
      Text += M.Source;
      Lexer Lex(M.Source);
      for (const Token &T : Lex.lexAll())
        Lines += T.is(TokenKind::Newline);
    }
  ADD_FAILURE() << "the corpus holds only " << Lines << " statements";
  return Text;
}

/// Heap allocations made while lexing, then while parsing, \p Text, and
/// the blocks and nodes of its AST.
struct Counts {
  uint64_t Lex = 0, Parse = 0;
  size_t Blocks = 0, Nodes = 0;
};

Counts countFrontend(const std::string &Text) {
  Counts C;
  uint64_t Start = AllocCount.load();
  Lexer Lex(Text);
  std::vector<Token> Tokens = Lex.lexAll();
  C.Lex = AllocCount.load() - Start;
  EXPECT_TRUE(Lex.errors().empty());

  AstContext Ctx;
  Start = AllocCount.load();
  Parser P(Ctx, std::move(Tokens));
  P.parseModule();
  C.Parse = AllocCount.load() - Start;
  EXPECT_TRUE(P.errors().empty());
  C.Blocks = Ctx.numBlocks();
  C.Nodes = Ctx.numNodes();
  return C;
}

TEST(FrontendAllocTest, LexingAllocatesOnlyTheTokenVectorAndIndentStack) {
  Counts C = countFrontend(generatedModule(2000));
  EXPECT_EQ(C.Lex, 2u);
}

TEST(FrontendAllocTest, ParsingAllocatesOnlyArenaBlocksAndAConstant) {
  // Beside the arena's blocks a clean parse allocates only the token
  // vector its f-string fields share.
  constexpr uint64_t Constant = 1;
  Counts Small = countFrontend(generatedModule(200));
  Counts Large = countFrontend(generatedModule(2000));
  EXPECT_GT(Large.Nodes, 8 * Small.Nodes);
  EXPECT_LE(Small.Parse, Small.Blocks + Constant);
  EXPECT_LE(Large.Parse, Large.Blocks + Constant);
  // Blocks double up to 1 MiB, so their count grows with the log of the
  // arena's size, not with the node count.
  EXPECT_LE(Large.Blocks, 8u);
}

TEST(FrontendAllocTest, GraphWalkAllocatesAFewBlocksPerEvent) {
  // Per module, buildModuleGraph's allocations less those of the same
  // module's parse: the walk's arena, the graph's own arrays and one
  // string per table entry too long for the short-string buffer.
  corpus::Corpus Data = testutil::makeCorpus(31, /*NumProjects=*/200);
  uint64_t Build = 0, Parse = 0;
  size_t Events = 0;
  for (const pysem::Project &P : Data.Projects)
    for (const pysem::ModuleInfo &M : P.modules()) {
      uint64_t Start = AllocCount.load();
      {
        AstContext Ctx;
        parseSource(Ctx, M.Source, nullptr);
      }
      Parse += AllocCount.load() - Start;
      Start = AllocCount.load();
      propgraph::PropagationGraph G = propgraph::buildModuleGraph(P, M);
      Build += AllocCount.load() - Start;
      Events += G.numEvents();
    }
  ASSERT_GT(Events, 10000u);
  ASSERT_GE(Build, Parse);
  const uint64_t Walk = Build - Parse;
  RecordProperty("walk_allocations", std::to_string(Walk));
  RecordProperty("events", std::to_string(Events));
  EXPECT_LE(Walk, 6 * Events) << Walk << " allocations for " << Events
                              << " events";
}

} // namespace
