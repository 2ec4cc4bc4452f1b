//===- support/FlatMap.h - Insertion-ordered open-addressed map --*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hash map over two flat arrays: the entries in insertion order, and an
/// open-addressed index of entry positions (a power of two of slots, at
/// most half used). It allocates nothing per entry, iterates in insertion
/// order, and clear() keeps both arrays' capacity, so a map reused across
/// inputs of similar size stops allocating. Entries are never
/// erased; a caller that needs removal stores a tombstone value.
///
/// Keys are hashed by FlatHash: std::string_view keys as std::hash does,
/// integers and pointers through a multiplicative mix, since the index
/// masks the hash's low bits. A reference to a value lives until the next
/// insert.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_FLATMAP_H
#define SELDON_SUPPORT_FLATMAP_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace seldon {

struct FlatHash {
  size_t operator()(std::string_view Text) const {
    return std::hash<std::string_view>{}(Text);
  }
  size_t operator()(uint64_t Key) const {
    Key ^= Key >> 33;
    Key *= 0xff51afd7ed558ccdull;
    Key ^= Key >> 33;
    return static_cast<size_t>(Key);
  }
  template <typename T> size_t operator()(T *Ptr) const {
    return (*this)(static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Ptr)));
  }
};

template <typename K, typename V> class FlatMap {
public:
  struct Entry {
    K Key;
    V Value;
  };

  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }
  std::span<Entry> entries() { return Entries; }
  std::span<const Entry> entries() const { return Entries; }
  auto begin() const { return Entries.begin(); }
  auto end() const { return Entries.end(); }

  /// The value of \p Key, or null. The Hashed forms take FlatHash{}(Key),
  /// for a caller probing several maps with one key.
  V *findHashed(const K &Key, size_t Hash) {
    if (Slots.empty())
      return nullptr;
    uint32_t Slot = Slots[probe(Key, Hash)];
    return Slot ? &Entries[Slot - 1].Value : nullptr;
  }
  const V *findHashed(const K &Key, size_t Hash) const {
    return const_cast<FlatMap *>(this)->findHashed(Key, Hash);
  }
  V *find(const K &Key) { return findHashed(Key, FlatHash{}(Key)); }
  const V *find(const K &Key) const {
    return findHashed(Key, FlatHash{}(Key));
  }

  /// The value of \p Key, inserted as \p Init when absent, and whether it
  /// was inserted.
  std::pair<V *, bool> insertHashed(const K &Key, size_t Hash, V Init = V()) {
    if (Slots.size() < 2 * (Entries.size() + 1))
      grow();
    uint32_t &Slot = Slots[probe(Key, Hash)];
    if (Slot)
      return {&Entries[Slot - 1].Value, false};
    Entries.push_back({Key, std::move(Init)});
    Slot = static_cast<uint32_t>(Entries.size());
    return {&Entries.back().Value, true};
  }
  std::pair<V *, bool> insert(const K &Key, V Init = V()) {
    return insertHashed(Key, FlatHash{}(Key), std::move(Init));
  }
  V &operator[](const K &Key) { return *insert(Key).first; }

  /// Removes every entry, keeping the arrays' capacity. An index far
  /// larger than the entries it held is dropped instead of wiped, so one
  /// large input does not make every later clear() pay for its size.
  void clear() {
    if (Slots.size() > 8 * (Entries.size() + 16))
      Slots = std::vector<uint32_t>();
    else
      std::fill(Slots.begin(), Slots.end(), 0);
    Entries.clear();
  }

private:
  /// The slot holding \p Key's entry, or the empty slot ending its probe.
  size_t probe(const K &Key, size_t Hash) const {
    const size_t Mask = Slots.size() - 1;
    size_t At = Hash & Mask;
    while (Slots[At] && !(Entries[Slots[At] - 1].Key == Key))
      At = (At + 1) & Mask;
    return At;
  }
  void grow() {
    Slots.assign(Slots.empty() ? 16 : 2 * Slots.size(), 0);
    for (uint32_t I = 0; I < Entries.size(); ++I)
      Slots[probe(Entries[I].Key, FlatHash{}(Entries[I].Key))] = I + 1;
  }

  std::vector<Entry> Entries;
  /// Entry position + 1 per slot; 0 is empty.
  std::vector<uint32_t> Slots;
};

} // namespace seldon

#endif // SELDON_SUPPORT_FLATMAP_H
