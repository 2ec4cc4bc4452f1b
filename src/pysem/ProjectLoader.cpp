//===- pysem/ProjectLoader.cpp - Load projects from disk ------------------===//

#include "pysem/ProjectLoader.h"

#include "support/FileIO.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <filesystem>

namespace fs = std::filesystem;

using namespace seldon;
using namespace seldon::pysem;

std::optional<Project>
seldon::pysem::loadProjectFromDir(const std::string &RootDir,
                                  const LoadOptions &Opts,
                                  std::vector<std::string> *ErrorsOut) {
  std::error_code Ec;
  fs::path Root(RootDir);
  if (!fs::is_directory(Root, Ec))
    return std::nullopt;

  std::string Name = Root.filename().string();
  if (Name.empty())
    Name = Root.parent_path().filename().string();
  if (Name.empty())
    Name = "project";
  Project Proj(Name);

  // Collect paths first and sort them so module order (and therefore event
  // ids) is deterministic across filesystems.
  std::vector<fs::path> Files;
  fs::recursive_directory_iterator It(
      Root, fs::directory_options::skip_permission_denied, Ec);
  fs::recursive_directory_iterator End;
  for (; It != End; It.increment(Ec)) {
    if (Ec) {
      Ec.clear();
      continue;
    }
    const fs::directory_entry &Entry = *It;
    if (Entry.is_directory(Ec)) {
      std::string Dir = Entry.path().filename().string();
      if (std::find(Opts.SkipDirs.begin(), Opts.SkipDirs.end(), Dir) !=
          Opts.SkipDirs.end())
        It.disable_recursion_pending();
      continue;
    }
    if (!Entry.is_regular_file(Ec) || Entry.path().extension() != ".py")
      continue;
    if (Opts.MaxFileBytes > 0 && Entry.file_size(Ec) > Opts.MaxFileBytes)
      continue;
    Files.push_back(Entry.path());
  }
  std::sort(Files.begin(), Files.end());

  for (const fs::path &File : Files) {
    io::IOResult<std::string> Source = io::readFile(File.string());
    if (!Source) {
      if (ErrorsOut)
        ErrorsOut->push_back(std::move(Source.Error));
      continue;
    }
    // Every walked path starts with Root, so the relative path is a pure
    // string operation: no per-component syscalls, and a symlinked file
    // keeps its own path rather than its target's.
    std::string Relative = File.lexically_relative(Root).generic_string();
    if (Relative.empty())
      Relative = File.filename().string();
    Proj.addModule(std::move(Relative), Source.Value);
  }
  return Proj;
}

std::vector<std::optional<Project>> seldon::pysem::loadProjectsFromDirs(
    const std::vector<std::string> &RootDirs, const LoadOptions &Opts,
    unsigned Jobs, std::vector<std::vector<std::string>> *ErrorsOut) {
  std::vector<std::optional<Project>> Out(RootDirs.size());
  if (ErrorsOut) {
    ErrorsOut->clear();
    ErrorsOut->resize(RootDirs.size());
  }
  auto LoadOne = [&](size_t I, unsigned) {
    Out[I] = loadProjectFromDir(RootDirs[I], Opts,
                                ErrorsOut ? &(*ErrorsOut)[I] : nullptr);
  };
  if (Jobs == 0)
    Jobs = ThreadPool::hardwareConcurrency();
  if (Jobs <= 1 || RootDirs.size() <= 1) {
    for (size_t I = 0; I < RootDirs.size(); ++I)
      LoadOne(I, 0);
    return Out;
  }
  ThreadPool Pool(static_cast<unsigned>(std::min<size_t>(Jobs, RootDirs.size())));
  Pool.parallelFor(RootDirs.size(), LoadOne);
  return Out;
}
