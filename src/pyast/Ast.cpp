//===- pyast/Ast.cpp - Python abstract syntax tree ------------------------===//

#include "pyast/Ast.h"

#include <algorithm>
#include <utility>

using namespace seldon;
using namespace seldon::pyast;

namespace {

/// The first block's size; each further block doubles it, up to MaxBlock.
constexpr size_t FirstBlock = 16 * 1024;
constexpr size_t MaxBlock = 1024 * 1024;

} // namespace

AstContext &AstContext::operator=(AstContext &&Other) noexcept {
  if (this != &Other) {
    release();
    Cur = std::exchange(Other.Cur, nullptr);
    End = std::exchange(Other.End, nullptr);
    Last = std::exchange(Other.Last, nullptr);
    NumNodes = std::exchange(Other.NumNodes, 0);
    NumBlocks = std::exchange(Other.NumBlocks, 0);
  }
  return *this;
}

void *AstContext::allocateSlow(size_t Size, size_t Align) {
  size_t Bytes = std::min(FirstBlock << std::min<size_t>(NumBlocks, 6),
                          MaxBlock);
  Bytes = std::max(Bytes, sizeof(Block) + Size + Align);
  char *Mem = static_cast<char *>(::operator new(Bytes));
  Last = new (Mem) Block{Last, Bytes};
  ++NumBlocks;
  Cur = Mem + sizeof(Block);
  End = Mem + Bytes;
  return allocate(Size, Align);
}

void AstContext::release() {
  while (Last) {
    Block *Prev = Last->Prev;
    ::operator delete(static_cast<void *>(Last));
    Last = Prev;
  }
  Cur = End = nullptr;
}

bool AstContext::contains(const void *P) const {
  auto *Byte = static_cast<const char *>(P);
  for (const Block *B = Last; B; B = B->Prev) {
    auto *Begin = reinterpret_cast<const char *>(B);
    if (Byte >= Begin + sizeof(Block) && Byte <= Begin + B->Bytes)
      return true;
  }
  return false;
}

const char *seldon::pyast::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add: return "+";
  case BinaryOp::Sub: return "-";
  case BinaryOp::Mul: return "*";
  case BinaryOp::MatMul: return "@";
  case BinaryOp::Div: return "/";
  case BinaryOp::FloorDiv: return "//";
  case BinaryOp::Mod: return "%";
  case BinaryOp::Pow: return "**";
  case BinaryOp::LShift: return "<<";
  case BinaryOp::RShift: return ">>";
  case BinaryOp::BitAnd: return "&";
  case BinaryOp::BitOr: return "|";
  case BinaryOp::BitXor: return "^";
  }
  return "?";
}
