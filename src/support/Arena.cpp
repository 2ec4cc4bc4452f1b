//===- support/Arena.cpp - Bump allocator over chunked blocks -------------===//

#include "support/Arena.h"

#include <algorithm>
#include <new>
#include <utility>

using namespace seldon;

namespace {

/// The first block's size; each further block doubles it, up to MaxBlock.
constexpr size_t FirstBlock = 16 * 1024;
constexpr size_t MaxBlock = 1024 * 1024;

} // namespace

Arena &Arena::operator=(Arena &&Other) noexcept {
  if (this != &Other) {
    release(First);
    First = std::exchange(Other.First, nullptr);
    Current = std::exchange(Other.Current, nullptr);
    Cur = std::exchange(Other.Cur, nullptr);
    End = std::exchange(Other.End, nullptr);
    NumBlocks = std::exchange(Other.NumBlocks, 0);
  }
  return *this;
}

void Arena::release(Block *From) {
  while (From) {
    Block *Next = From->Next;
    ::operator delete(static_cast<void *>(From));
    From = Next;
  }
}

void *Arena::allocateSlow(size_t Size, size_t Align) {
  // A kept block after the current one may still have room (after a
  // reset(), every kept block is empty); one too small for this request
  // stays unused until the next reset().
  Block *Last = nullptr;
  for (Block *B = Current ? Current->Next : First; B; B = B->Next) {
    Last = B;
    if (sizeof(Block) + Size + Align <= B->Bytes) {
      Current = B;
      Cur = reinterpret_cast<char *>(B) + sizeof(Block);
      End = reinterpret_cast<char *>(B) + B->Bytes;
      return allocate(Size, Align);
    }
  }
  if (!Last)
    Last = Current;
  size_t Bytes = std::min(FirstBlock << std::min<size_t>(NumBlocks, 6),
                          MaxBlock);
  Bytes = std::max(Bytes, sizeof(Block) + Size + Align);
  auto *B = new (::operator new(Bytes)) Block{nullptr, Bytes};
  (Last ? Last->Next : First) = B;
  ++NumBlocks;
  Current = B;
  Cur = reinterpret_cast<char *>(B) + sizeof(Block);
  End = reinterpret_cast<char *>(B) + Bytes;
  return allocate(Size, Align);
}

void Arena::reset() {
  // Keep the first blocks up to RetainBytes (the first one always).
  size_t Kept = 0;
  Block *Keep = First;
  for (Block *B = First; B; B = B->Next) {
    Kept += B->Bytes;
    if (B != First && Kept > RetainBytes)
      break;
    Keep = B;
  }
  if (Keep) {
    Block *Drop = Keep->Next;
    Keep->Next = nullptr;
    for (Block *B = Drop; B; B = B->Next)
      --NumBlocks;
    release(Drop);
  }
  Current = nullptr;
  Cur = End = nullptr;
}

bool Arena::contains(const void *P) const {
  auto *Byte = static_cast<const char *>(P);
  for (const Block *B = First; B; B = B->Next) {
    auto *Begin = reinterpret_cast<const char *>(B);
    if (Byte >= Begin + sizeof(Block) && Byte <= Begin + B->Bytes)
      return true;
  }
  return false;
}
