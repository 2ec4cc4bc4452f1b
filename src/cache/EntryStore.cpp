//===- cache/EntryStore.cpp - Content-addressed on-disk entry store -------===//

#include "cache/EntryStore.h"

#include "support/BinaryCodec.h"
#include "support/FileIO.h"
#include "support/Metrics.h"
#include "support/StrUtil.h"
#include "support/Timer.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

using namespace seldon;
using namespace seldon::cache;

namespace fs = std::filesystem;

std::string CacheKey::hex() const {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Hash));
  return std::string(Buf);
}

EntryStore::EntryStore(std::string Dir, const EntryKind &Kind)
    : Dir(std::move(Dir)), Kind(Kind) {
  // A store that crashed between writing its temp and the publishing
  // rename leaks a temp; opening sweeps the old ones so they cannot
  // accumulate across runs.
  io::IOResult<size_t> Opened =
      io::openDirectory(this->Dir, Kind.DirName, {Kind.Suffix});
  DirError = Opened.Error;
  Stats.StaleTempsRemoved = Opened.Value;
}

std::string EntryStore::entryPath(const CacheKey &Key) const {
  return Dir + "/" + Key.hex() + Kind.Suffix;
}

CacheStats EntryStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}

void EntryStore::count(const char *Metric, uint64_t Delta) const {
  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled())
    Reg.counter(std::string(Kind.Name) + "." + Metric).add(Delta);
}

void EntryStore::loadEntry(
    const CacheKey &Key,
    const std::function<std::string(std::string_view)> &Decode) {
  Timer LoadTimer;
  std::string Path = entryPath(Key);
  io::IOResult<std::string> Bytes =
      valid() ? io::readFile(Path)
              : io::IOResult<std::string>::failure(DirError);
  std::string Problem;
  if (Bytes) {
    std::string_view Entry = Bytes.Value;
    codec::ByteReader Prefix(Entry);
    uint64_t StoredKey = Prefix.getFixed64("key prefix");
    if (!Prefix.ok())
      Problem = formatString("truncated %s entry: %s", Kind.Name,
                             Prefix.error().c_str());
    else if (StoredKey != Key.Hash)
      Problem = formatString("%s entry key mismatch: stored %016llx, "
                             "expected %s",
                             Kind.Name,
                             static_cast<unsigned long long>(StoredKey),
                             Key.hex().c_str());
    else
      Problem = Decode(Entry.substr(Prefix.offset()));
    if (Problem.empty()) {
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Stats.Hits;
        Stats.BytesRead += Entry.size();
      }
      count("hits");
      count("bytes_read", Entry.size());
      metrics::Registry &Reg = metrics::Registry::global();
      if (Reg.enabled())
        Reg.timer(std::string(Kind.Name) + ".load_seconds")
            .record(LoadTimer.seconds());
      return;
    }
    // Corrupt entry: evict it so the rebuild's write-back starts clean.
    std::error_code Ec;
    fs::remove(Path, Ec);
  }

  // A miss — the entry is absent, the directory unusable, or the entry
  // was just evicted — sends the caller to a cold build.
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Misses;
    if (!Problem.empty()) {
      ++Stats.Evictions;
      Stats.Errors.push_back(formatString("evicted %s: %s", Path.c_str(),
                                          Problem.c_str()));
    }
  }
  count("misses");
  if (!Problem.empty())
    count("evictions");
}

bool EntryStore::storeEntry(const CacheKey &Key, std::string_view Blob) {
  if (!valid()) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stats.Errors.push_back(formatString(
        "cannot store %s: %s", Key.hex().c_str(), DirError.c_str()));
    return false;
  }

  Timer StoreTimer;
  // The 8-byte key prefix lets a load check the entry is its key's.
  std::string Bytes;
  Bytes.reserve(8 + Blob.size());
  codec::putFixed64(Bytes, Key.Hash);
  Bytes.append(Blob);

  // Entries are rebuildable, so the publish skips the fsyncs.
  io::IOResult<size_t> Written =
      io::publishFile(entryPath(Key), Bytes, /*Fsync=*/false);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Written) {
      Stats.Errors.push_back(formatString("cannot store %s entry %s: %s",
                                          Kind.Name, Key.hex().c_str(),
                                          Written.Error.c_str()));
      return false;
    }
    ++Stats.Stores;
    Stats.BytesWritten += Bytes.size();
  }
  count("stores");
  count("bytes_written", Bytes.size());
  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled())
    Reg.timer(std::string(Kind.Name) + ".store_seconds")
        .record(StoreTimer.seconds());
  return true;
}
