//===- e2ebench/src/Corpus.cpp - Seeded corpus on disk --------------------===//

#include "Corpus.h"

#include "corpus/CorpusGenerator.h"
#include "spec/SpecIO.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;
using namespace seldon;

namespace e2e {

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return static_cast<bool>(In) || In.eof();
}

bool writeWholeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Data;
  Out.close();
  return static_cast<bool>(Out);
}

std::vector<std::string> listPyFiles(const std::string &Dir) {
  std::vector<std::string> Files;
  std::error_code EC;
  for (fs::recursive_directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC))
    if (It->is_regular_file() && It->path().extension() == ".py")
      Files.push_back(It->path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

namespace {

constexpr const char *RoleNames[] = {"source", "sanitizer", "sink"};

/// Writes the modules of \p Proj under \p Dir. Generated module paths
/// carry the project name as their first component; on disk that
/// component is the project directory itself.
bool writeProject(const pysem::Project &Proj, const std::string &Dir,
                  size_t MaxModules, size_t &Files, uint64_t &Bytes) {
  size_t Written = 0;
  for (const pysem::ModuleInfo &M : Proj.modules()) {
    if (Written == MaxModules)
      break;
    std::string Rel = M.Path;
    std::string Prefix = Proj.name() + "/";
    if (Rel.compare(0, Prefix.size(), Prefix) == 0)
      Rel = Rel.substr(Prefix.size());
    fs::path Path = fs::path(Dir) / Rel;
    std::error_code EC;
    fs::create_directories(Path.parent_path(), EC);
    if (EC || !writeWholeFile(Path.string(), M.Source))
      return false;
    ++Files;
    ++Written;
    Bytes += M.Source.size();
  }
  return true;
}

/// The child half of materializeCorpus: generate, write, exit code 0 on
/// success.
int generateInChild(const RunConfig &Cfg, const std::string &Root) {
  corpus::CorpusOptions Opts;
  Opts.NumProjects = Cfg.Projects;
  Opts.Seed = Cfg.Seed;
  corpus::Corpus Data = corpus::generateCorpus(Opts);

  size_t Files = 0;
  uint64_t Bytes = 0;
  for (const pysem::Project &P : Data.Projects)
    if (!writeProject(P, Root + "/corpus/" + P.name(), SIZE_MAX, Files,
                      Bytes))
      return 1;
  if (!spec::saveSeedSpec(Data.Seed, Root + "/seed.spec"))
    return 1;

  std::string Truth;
  for (int R = 0; R < propgraph::NumRoles; ++R)
    for (const std::string &Rep :
         Data.Truth.repsWithRole(static_cast<propgraph::Role>(R)))
      Truth += std::string(RoleNames[R]) + "\t" + Rep + "\n";
  if (!writeWholeFile(Root + "/truth.tsv", Truth))
    return 1;

  // The taint payload: a five-file project from an unrelated seed.
  corpus::CorpusOptions PayloadOpts;
  PayloadOpts.NumProjects = 1;
  PayloadOpts.MinFilesPerProject = PayloadOpts.MaxFilesPerProject = 5;
  PayloadOpts.Seed = Cfg.Seed ^ 0x9e3779b97f4a7c15ull;
  corpus::Corpus Payload = corpus::generateCorpus(PayloadOpts);
  size_t PayloadFiles = 0;
  uint64_t PayloadBytes = 0;
  if (!writeProject(Payload.Projects.front(), Root + "/payload", 5,
                    PayloadFiles, PayloadBytes))
    return 1;

  return writeWholeFile(Root + "/corpus.stats",
                        std::to_string(Files) + " " + std::to_string(Bytes) +
                            "\n")
             ? 0
             : 1;
}

bool loadTruth(const std::string &Path, corpus::GroundTruth &Out) {
  std::string Text;
  if (!readWholeFile(Path, Text))
    return false;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Tab = Line.find('\t');
    if (Tab == std::string::npos)
      return false;
    std::string Name = Line.substr(0, Tab);
    int Role = -1;
    for (int R = 0; R < propgraph::NumRoles; ++R)
      if (Name == RoleNames[R])
        Role = R;
    if (Role < 0)
      return false;
    Out.add(Line.substr(Tab + 1),
            propgraph::maskOf(static_cast<propgraph::Role>(Role)));
  }
  return true;
}

bool generateCorpusDir(const RunConfig &Cfg, const std::string &Root,
                       std::string &Error) {
  std::fflush(nullptr);
  pid_t Child = ::fork();
  if (Child < 0) {
    Error = "cannot fork the corpus generator";
    return false;
  }
  if (Child == 0) {
    int Rc = 1;
    try {
      Rc = generateInChild(Cfg, Root);
    } catch (...) {
      Rc = 1;
    }
    std::_Exit(Rc);
  }
  int Status = 0;
  if (::waitpid(Child, &Status, 0) != Child || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0) {
    Error = "corpus generation failed";
    return false;
  }
  return true;
}

/// Keeps the \p Keep most recently used corpora under \p Dir.
void evictOldCorpora(const fs::path &Dir, size_t Keep) {
  std::error_code EC;
  std::vector<std::pair<fs::file_time_type, fs::path>> Entries;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC))
    if (It->is_directory())
      Entries.emplace_back(fs::last_write_time(It->path(), EC), It->path());
  if (Entries.size() <= Keep)
    return;
  std::sort(Entries.begin(), Entries.end());
  for (size_t I = 0; I + Keep < Entries.size(); ++I)
    fs::remove_all(Entries[I].second, EC);
}

} // namespace

bool materializeCorpus(const RunConfig &Cfg, DiskCorpus &Out,
                       std::string &Error) {
  double Start = now();
  // Generated corpora are kept per (seed, size, build) and shared by later
  // runs; one is published by renaming a finished directory into place, so
  // a half-written corpus is never used.
  fs::path Cache = fs::path(Cfg.WorkDir).parent_path() / "corpora";
  fs::path Root = Cache / ("seed" + std::to_string(Cfg.Seed) + "-p" +
                           std::to_string(Cfg.Projects) + "-b" +
                           Cfg.BuildStamp);
  std::error_code EC;
  if (!fs::exists(Root / "corpus.stats")) {
    fs::path Temp = Cfg.WorkDir + "/corpus-tmp";
    fs::remove_all(Temp, EC);
    if (!generateCorpusDir(Cfg, Temp.string(), Error))
      return false;
    fs::create_directories(Cache, EC);
    fs::remove_all(Root, EC);
    fs::rename(Temp, Root, EC);
    if (EC) {
      Error = "cannot publish the corpus: " + EC.message();
      return false;
    }
  }
  fs::last_write_time(Root, fs::file_time_type::clock::now(), EC);
  evictOldCorpora(Cache, 10);

  std::string Stats;
  if (!readWholeFile((Root / "corpus.stats").string(), Stats)) {
    Error = "corpus statistics missing";
    return false;
  }
  std::istringstream(Stats) >> Out.Files >> Out.Bytes;
  for (int P = 0; P < Cfg.Projects; ++P)
    Out.Dirs.push_back((Root / "corpus" / ("proj" + std::to_string(P)))
                           .string());
  Out.SeedPath = (Root / "seed.spec").string();
  Out.PayloadDir = (Root / "payload").string();

  spec::IOResult<spec::SeedSpec> Seed = spec::loadSeedSpec(Out.SeedPath);
  if (!Seed) {
    Error = "seed specification: " + Seed.Error;
    return false;
  }
  Out.Seed = std::move(Seed.Value);
  if (!loadTruth((Root / "truth.tsv").string(), Out.Truth)) {
    Error = "ground truth file is malformed";
    return false;
  }
  Out.Seconds = now() - Start;
  return true;
}

bool copyCorpus(DiskCorpus &C, const std::string &Dir, std::string &Error) {
  std::error_code EC;
  fs::path Source = fs::path(C.Dirs.front()).parent_path();
  fs::copy(Source, Dir, fs::copy_options::recursive, EC);
  if (EC) {
    Error = "cannot copy the corpus: " + EC.message();
    return false;
  }
  for (std::string &D : C.Dirs)
    D = (fs::path(Dir) / fs::path(D).filename()).string();
  return true;
}

} // namespace e2e
