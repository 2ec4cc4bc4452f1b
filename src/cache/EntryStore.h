//===- cache/EntryStore.h - Content-addressed on-disk entries ---*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one store behind GraphCache and ShardCache: a directory of
/// "<16-hex-key><suffix>" entries, each the 8-byte little-endian key
/// followed by one codec frame. The two caches differ only in their codec
/// (CodecStore's parameters) and EntryKind: entry suffix, metric prefix
/// and the nouns their messages use.
///
/// Failure discipline: a missing entry is a miss; an unreadable,
/// truncated, corrupt, version-skewed or key-mismatched entry is
/// *evicted* (the file is deleted, the error recorded in the stats) and
/// reported as a miss, so the caller rebuilds and re-stores it. An
/// unusable directory degrades the store to all-miss operation.
///
/// Concurrency: loads and stores may run concurrently from pool workers
/// and from other processes. Stores go through io::publishFile (unique
/// temp + rename, no fsync: every entry is rebuildable), so readers never
/// observe a half-written entry.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CACHE_ENTRYSTORE_H
#define SELDON_CACHE_ENTRYSTORE_H

#include "support/IOResult.h"

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace seldon {
namespace cache {

/// Content hash identifying one cache entry.
struct CacheKey {
  uint64_t Hash = 0;

  /// 16 lowercase hex digits; the entry's file stem.
  std::string hex() const;
};

/// Counters of one cache's lifetime (monotonic; snapshot via stats()).
struct CacheStats {
  uint64_t Hits = 0;       ///< Entries adopted without a rebuild.
  uint64_t Misses = 0;     ///< Absent or evicted entries.
  uint64_t Evictions = 0;  ///< Corrupt/mismatched entries deleted on load.
  uint64_t Stores = 0;     ///< Entries written back.
  uint64_t BytesRead = 0;  ///< Total size of successfully loaded entries.
  uint64_t BytesWritten = 0;
  /// Crash-leaked "<entry>.tmp<digits>" files swept when the cache opened.
  uint64_t StaleTempsRemoved = 0;
  /// Descriptive messages of every rejected entry and failed store, in
  /// occurrence order.
  std::vector<std::string> Errors;
};

/// What sets one cache's files and messages apart.
struct EntryKind {
  const char *Suffix;  ///< Entry file suffix (".spg", ".scs").
  const char *Name;    ///< Metric prefix and entry noun ("cache", "shard").
  const char *DirName; ///< Directory noun ("cache", "shard cache").
};

/// The store. Construction creates the directory (recursively) and sweeps
/// stale store temps.
class EntryStore {
public:
  EntryStore(const EntryStore &) = delete;
  EntryStore &operator=(const EntryStore &) = delete;

  const std::string &dir() const { return Dir; }

  /// False when the cache directory could not be created/used; error()
  /// then describes why.
  bool valid() const { return DirError.empty(); }
  const std::string &error() const { return DirError; }

  /// Path of \p Key's entry file inside dir().
  std::string entryPath(const CacheKey &Key) const;

  /// Snapshot of the counters and recorded errors.
  CacheStats stats() const;

protected:
  EntryStore(std::string Dir, const EntryKind &Kind);
  ~EntryStore() = default;

  /// Reads \p Key's entry, checks its key prefix and passes the codec blob
  /// after it to \p Decode, which returns an empty string when it adopted
  /// the blob and the reason otherwise. Thread-safe.
  void loadEntry(const CacheKey &Key,
                 const std::function<std::string(std::string_view)> &Decode);

  /// Publishes \p Blob as \p Key's entry. Returns false (recording an
  /// error) when the write fails. Thread-safe.
  bool storeEntry(const CacheKey &Key, std::string_view Blob);

private:
  void count(const char *Metric, uint64_t Delta = 1) const;

  std::string Dir;
  EntryKind Kind;
  std::string DirError;
  mutable std::mutex Mutex;
  CacheStats Stats;
};

/// An EntryStore of one codec's values: load() decodes entries with
/// \p Decode, store() encodes values with \p Encode.
template <class T, std::string (*Encode)(const T &),
          io::IOResult<T> (*Decode)(std::string_view)>
class CodecStore : public EntryStore {
public:
  /// Loads and decodes \p Key's entry. nullopt on miss — including every
  /// corruption case, which additionally evicts the bad entry and records
  /// a descriptive error in stats(). Thread-safe.
  std::optional<T> load(const CacheKey &Key) {
    std::optional<T> Value;
    loadEntry(Key, [&](std::string_view Blob) {
      io::IOResult<T> Decoded = Decode(Blob);
      if (Decoded)
        Value = std::move(Decoded.Value);
      return Decoded.Error;
    });
    return Value;
  }

  /// Encodes and atomically writes \p Value as \p Key's entry. Returns
  /// false (recording an error) when the write fails. Thread-safe.
  bool store(const CacheKey &Key, const T &Value) {
    return storeEntry(Key, Encode(Value));
  }

protected:
  using EntryStore::EntryStore;
};

} // namespace cache
} // namespace seldon

#endif // SELDON_CACHE_ENTRYSTORE_H
