//===- infer/RunConfig.cpp - One run's set-up over a corpus ---------------===//

#include "infer/RunConfig.h"

#include "pysem/ProjectLoader.h"
#include "spec/SpecIO.h"

using namespace seldon;
using namespace seldon::infer;

io::IOResult<spec::SeedSpec>
seldon::infer::loadRunSeed(const RunConfig &Config) {
  if (Config.SeedFile.empty())
    return io::IOResult<spec::SeedSpec>::success(
        spec::SeedSpec::parse(spec::paperSeedSpecText()));
  return spec::loadSeedSpec(Config.SeedFile);
}

RunCorpus seldon::infer::loadRunCorpus(const RunConfig &Config) {
  RunCorpus Out;
  std::vector<std::optional<pysem::Project>> Loaded =
      pysem::loadProjectsFromDirs(Config.CorpusDirs, pysem::LoadOptions(),
                                  Config.Jobs, &Out.Warnings);
  for (size_t I = 0; I < Loaded.size(); ++I) {
    if (!Loaded[I]) {
      Out.Warnings.resize(I + 1);
      Out.Error = Config.CorpusDirs[I] + " is not a directory";
      break;
    }
    Out.Projects.push_back(std::move(*Loaded[I]));
  }
  return Out;
}

std::unique_ptr<Session>
seldon::infer::makeRunSession(const RunConfig &Config,
                              const std::vector<pysem::Project> &Projects,
                              std::string &Error) {
  PipelineOptions P;
  P.Solve.MaxIterations = Config.Iterations;
  P.Gen.RepCutoff = Config.RepCutoff;
  P.Jobs = Config.Jobs;
  P.Strict = Config.Strict;
  auto S = std::make_unique<Session>(P);
  S->addProjects(Projects);
  if (Config.CacheDir.empty())
    return S;
  S->enableCache(Config.CacheDir);
  if (Config.ShardCache)
    S->enableShardCache(Config.CacheDir + "/shards");
  if (!S->graphCache()->valid())
    Error = S->graphCache()->error();
  else if (Config.ShardCache && !S->shardCache()->valid())
    Error = S->shardCache()->error();
  return S;
}
