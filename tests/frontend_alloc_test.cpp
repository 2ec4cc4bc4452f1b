//===- tests/frontend_alloc_test.cpp - Heap allocations of lex and parse --===//
//
// The frontend's memory contract, counted through a replaced global
// operator new: lexing a module allocates only its token vector and its
// indentation stack, and parsing it allocates only the AST arena's blocks
// plus a constant that does not grow with the module. Counts repeat
// exactly from run to run, so a regression here shows whatever the host's
// speed. The counting operator new trips ASan, so this binary stays out of
// the sanitizer legs.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

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

} // namespace
