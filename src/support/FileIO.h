//===- support/FileIO.h - Whole-file reads, writes and publishes -*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every whole-file read and write in the tree goes through here, so each
/// IO decision is made once:
///
///  * readFile reads a file whole.
///  * writeFile writes a file in place (spec files, --out, --metrics-out)
///    and fails unless every byte reached it.
///  * publishFile replaces a file atomically: it writes a temp file next
///    to the target and renames it over the target, so a reader in any
///    process sees the old file or the new one, never part of either.
///    Only a caller that asks gets fsyncs: durable state does, the
///    rebuildable caches do not.
///  * appendAndSync grows an open file durably (seldond's journal).
///  * openDirectory readies a directory of published files, sweeping the
///    temps a crashed publish left behind (sweepStaleTemps).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_FILEIO_H
#define SELDON_SUPPORT_FILEIO_H

#include "support/IOResult.h"

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>

namespace seldon {
namespace io {

/// Reads the whole file at \p Path.
IOResult<std::string> readFile(const std::string &Path);

/// Creates or truncates \p Path and writes \p Bytes to it. Fails unless
/// every write and the close succeed; the value is the byte count.
IOResult<size_t> writeFile(const std::string &Path, std::string_view Bytes);

/// Publishes \p Bytes at \p Path through the temp file
/// "<Path>.tmp<pid, 10 digits><sequence number>" and a rename. With
/// \p Fsync the temp file is fsynced before the rename and the directory
/// after it. \p BeforeRename, when set, runs between the (fsynced) write
/// and the rename — a crash point for tests. A failed publish removes
/// its temp file and leaves \p Path as it was.
IOResult<size_t> publishFile(const std::string &Path, std::string_view Bytes,
                             bool Fsync,
                             const std::function<void()> &BeforeRename = {});

/// Appends all of \p Bytes to the open descriptor \p Fd, then fsyncs it.
/// \p BeforeSync, when set, runs between the write and the fsync — a
/// crash point for tests.
IOResult<size_t> appendAndSync(int Fd, std::string_view Bytes,
                               const std::function<void()> &BeforeSync = {});

/// Removes the temp files a crashed publishFile left in \p Dir for
/// targets ending in \p Suffix: names of the form "<stem><Suffix>.tmp"
/// followed by digits only, at least \p MaxAgeSeconds old. The age guard
/// keeps another process's in-flight publish alive. Returns the number
/// removed.
size_t sweepStaleTemps(const std::string &Dir, const char *Suffix,
                       unsigned MaxAgeSeconds = 15 * 60);

/// Creates \p Dir (recursively) when missing, checks it is a directory,
/// and sweeps the stale temps of each of \p Suffixes. The value is the
/// number of temps removed; an error calls \p Dir "<Noun> directory".
IOResult<size_t> openDirectory(const std::string &Dir, const char *Noun,
                               std::initializer_list<const char *> Suffixes);

} // namespace io
} // namespace seldon

#endif // SELDON_SUPPORT_FILEIO_H
