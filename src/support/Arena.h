//===- support/Arena.h - Bump allocator over chunked blocks ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump allocator for trivially destructible data that dies all at once:
/// an AST, or one module's graph-building state. Memory comes from chunked
/// blocks (16 KiB, doubling up to 1 MiB, larger for one big request) whose
/// headers link them, so the arena allocates nothing but its blocks. The
/// arena never runs a destructor. reset() rewinds to the first block and
/// keeps up to RetainBytes of blocks for the next input, so an arena
/// reused across inputs stops allocating once it has held the largest.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_ARENA_H
#define SELDON_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string_view>
#include <type_traits>

namespace seldon {

class Arena {
public:
  /// Blocks kept across reset().
  static constexpr size_t RetainBytes = 1024 * 1024;

  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  Arena(Arena &&Other) noexcept { *this = static_cast<Arena &&>(Other); }
  Arena &operator=(Arena &&Other) noexcept;
  ~Arena() { release(First); }

  /// Returns \p Size bytes aligned to \p Align (a power of two).
  void *allocate(size_t Size, size_t Align) {
    uintptr_t At = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) &
                   ~static_cast<uintptr_t>(Align - 1);
    if (At + Size > reinterpret_cast<uintptr_t>(End))
      return allocateSlow(Size, Align);
    Cur = reinterpret_cast<char *>(At + Size);
    return reinterpret_cast<void *>(At);
  }

  /// Room for \p N objects of type \p T, uninitialized.
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena never runs a destructor");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Copies \p Items into the arena.
  template <typename T> std::span<T> copyArray(std::span<const T> Items) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Items.empty())
      return {};
    T *Out = allocateArray<T>(Items.size());
    std::memcpy(static_cast<void *>(Out), Items.data(), Items.size_bytes());
    return {Out, Items.size()};
  }

  /// Copies \p Text into the arena.
  std::string_view copyText(std::string_view Text) {
    return concat({Text});
  }

  /// \p Parts written back to back into one arena string.
  std::string_view concat(std::initializer_list<std::string_view> Parts) {
    size_t Size = 0;
    for (std::string_view P : Parts)
      Size += P.size();
    if (Size == 0)
      return {};
    char *Out = static_cast<char *>(allocate(Size, 1));
    char *At = Out;
    for (std::string_view P : Parts)
      if (!P.empty()) { // An empty view's data may be null.
        std::memcpy(At, P.data(), P.size());
        At += P.size();
      }
    return {Out, Size};
  }

  /// Forgets everything allocated: the next allocation starts at the first
  /// block again. Blocks past the first RetainBytes are freed.
  void reset();

  /// Heap blocks the arena holds.
  size_t numBlocks() const { return NumBlocks; }
  /// True if \p P points into a block of this arena.
  bool contains(const void *P) const;

private:
  struct Block {
    Block *Next;
    size_t Bytes;
  };
  void *allocateSlow(size_t Size, size_t Align);
  static void release(Block *From);

  Block *First = nullptr;   ///< Blocks in allocation order.
  Block *Current = nullptr; ///< The block Cur bumps through.
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NumBlocks = 0;
};

/// A list grown in an arena: a full list moves to a buffer twice its size
/// and leaves the old one to the arena. It lives until the arena is reset.
template <typename T> struct ArenaList {
  T *Data = nullptr;
  uint32_t Size = 0, Cap = 0;

  void push(Arena &Mem, T Item) {
    if (Size == Cap) {
      Cap = Cap ? 2 * Cap : 4;
      T *Grown = Mem.allocateArray<T>(Cap);
      if (Size)
        std::memcpy(static_cast<void *>(Grown), Data, Size * sizeof(T));
      Data = Grown;
    }
    Data[Size++] = Item;
  }
  std::span<const T> view() const { return {Data, Size}; }
};

} // namespace seldon

#endif // SELDON_SUPPORT_ARENA_H
