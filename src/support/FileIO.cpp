//===- support/FileIO.cpp - Whole-file reads, writes and publishes --------===//

#include "support/FileIO.h"

#include "support/StrUtil.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

using namespace seldon;
using namespace seldon::io;

namespace fs = std::filesystem;

namespace {

/// Writes all of \p Bytes to \p Fd, retrying short writes and EINTR;
/// returns the failure's reason, or an empty string.
std::string writeAll(int Fd, std::string_view Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0 && errno != EINTR)
      return std::strerror(errno);
    if (N > 0)
      Off += static_cast<size_t>(N);
  }
  return std::string();
}

/// Creates or truncates \p Path and writes \p Bytes, fsyncing before the
/// close when \p Fsync is set.
IOResult<size_t> writeWhole(const std::string &Path, std::string_view Bytes,
                            bool Fsync) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0666);
  std::string Reason = Fd < 0 ? std::strerror(errno) : writeAll(Fd, Bytes);
  if (Reason.empty() && Fsync && ::fsync(Fd) != 0)
    Reason = std::strerror(errno);
  // close() reports what a deferred write (a full disk, NFS) could not.
  if (Fd >= 0 && ::close(Fd) != 0 && Reason.empty())
    Reason = std::strerror(errno);
  if (!Reason.empty())
    return IOResult<size_t>::failure(
        formatString("cannot write %s: %s", Path.c_str(), Reason.c_str()));
  return IOResult<size_t>::success(Bytes.size());
}

/// Makes a rename inside the directory of \p Path durable. Best-effort:
/// some filesystems refuse to fsync a directory, and the file itself was
/// already fsynced.
void fsyncParent(const std::string &Path) {
  std::string Dir = fs::path(Path).parent_path().string();
  int Fd = ::open(Dir.empty() ? "." : Dir.c_str(),
                  O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
  }
}

} // namespace

IOResult<std::string> seldon::io::readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Bytes;
  if (In)
    Bytes << In.rdbuf();
  if (!In.is_open() || In.bad())
    return IOResult<std::string>::failure(formatString(
        "cannot read %s: %s", Path.c_str(), std::strerror(errno)));
  return IOResult<std::string>::success(std::move(Bytes).str());
}

IOResult<size_t> seldon::io::writeFile(const std::string &Path,
                                       std::string_view Bytes) {
  return writeWhole(Path, Bytes, /*Fsync=*/false);
}

IOResult<size_t>
seldon::io::publishFile(const std::string &Path, std::string_view Bytes,
                        bool Fsync,
                        const std::function<void()> &BeforeRename) {
  // The pid keeps two processes publishing the same file (a daemon and a
  // CLI run sharing a cache directory) off each other's temp; the
  // sequence number does the same for threads of one process. Fixed
  // width keeps every (pid, sequence) pair a distinct digit string.
  static std::atomic<uint64_t> Seq{0};
  std::string Temp = formatString(
      "%s.tmp%010ld%llu", Path.c_str(), static_cast<long>(::getpid()),
      static_cast<unsigned long long>(
          Seq.fetch_add(1, std::memory_order_relaxed)));
  IOResult<size_t> Written = writeWhole(Temp, Bytes, Fsync);
  if (Written.ok() && BeforeRename)
    BeforeRename();
  if (Written.ok() && ::rename(Temp.c_str(), Path.c_str()) != 0)
    Written = IOResult<size_t>::failure(
        formatString("cannot rename %s to %s: %s", Temp.c_str(),
                     Path.c_str(), std::strerror(errno)));
  if (!Written.ok()) {
    ::unlink(Temp.c_str());
    return Written;
  }
  if (Fsync)
    fsyncParent(Path);
  return Written;
}

IOResult<size_t>
seldon::io::appendAndSync(int Fd, std::string_view Bytes,
                          const std::function<void()> &BeforeSync) {
  if (std::string Reason = writeAll(Fd, Bytes); !Reason.empty())
    return IOResult<size_t>::failure("write failed: " + Reason);
  if (BeforeSync)
    BeforeSync();
  if (::fsync(Fd) != 0)
    return IOResult<size_t>::failure(std::string("fsync failed: ") +
                                     std::strerror(errno));
  return IOResult<size_t>::success(Bytes.size());
}

size_t seldon::io::sweepStaleTemps(const std::string &Dir,
                                   const char *Suffix,
                                   unsigned MaxAgeSeconds) {
  const std::string TempMarker = std::string(Suffix) + ".tmp";
  const auto Now = fs::file_time_type::clock::now();
  size_t Removed = 0;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    const fs::path &P = It->path();
    const std::string Name = P.filename().string();
    size_t At = Name.find(TempMarker);
    // The marker must be followed by digits only — an entry legitimately
    // named "...tmp..." earlier in the stem is not a temp.
    if (At == std::string::npos ||
        Name.find_first_not_of("0123456789", At + TempMarker.size()) !=
            std::string::npos)
      continue;
    std::error_code FileEc;
    fs::file_time_type Mtime = fs::last_write_time(P, FileEc);
    if (FileEc || Now - Mtime < std::chrono::seconds(MaxAgeSeconds))
      continue; // Possibly a live writer in another process.
    if (fs::remove(P, FileEc) && !FileEc)
      ++Removed;
  }
  return Removed;
}

IOResult<size_t>
seldon::io::openDirectory(const std::string &Dir, const char *Noun,
                          std::initializer_list<const char *> Suffixes) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec)
    return IOResult<size_t>::failure(
        formatString("cannot create %s directory %s: %s", Noun, Dir.c_str(),
                     Ec.message().c_str()));
  if (!fs::is_directory(Dir, Ec))
    return IOResult<size_t>::failure(
        formatString("%s path %s is not a directory", Noun, Dir.c_str()));
  size_t Removed = 0;
  for (const char *Suffix : Suffixes)
    Removed += sweepStaleTemps(Dir, Suffix);
  return IOResult<size_t>::success(Removed);
}
