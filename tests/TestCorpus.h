//===- tests/TestCorpus.h - Shared seeded-RNG corpus setup -------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place tests configure corpus::CorpusGenerator: a seeded corpus
/// of a given size, the corpus-order global graph, the representation
/// table of a hand-written graph, and a unique scratch directory helper
/// for cache tests. Property, codec, and cache tests all draw their
/// randomized inputs from here so "the corpus at seed S" means the same
/// thing in every suite.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_TESTS_TESTCORPUS_H
#define SELDON_TESTS_TESTCORPUS_H

#include "corpus/CorpusGenerator.h"
#include "propgraph/GraphBuilder.h"
#include "propgraph/RepTable.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

#include <unistd.h>

namespace seldon {
namespace testutil {

/// Generates the standard test corpus for \p Seed: \p NumProjects small
/// synthetic web apps plus the paper-style seed specification and ground
/// truth. Deterministic in (Seed, NumProjects).
inline corpus::Corpus makeCorpus(uint64_t Seed, int NumProjects = 8) {
  corpus::CorpusOptions Opts;
  Opts.NumProjects = NumProjects;
  Opts.Seed = Seed;
  return corpus::generateCorpus(Opts);
}

/// Builds the corpus-order global propagation graph of \p Data — the same
/// merge order Session::buildGraph uses, so event ids match a pipeline
/// run.
inline propgraph::PropagationGraph
buildGlobalGraph(const corpus::Corpus &Data,
                 const propgraph::BuildOptions &Opts =
                     propgraph::BuildOptions()) {
  propgraph::PropagationGraph Global;
  for (const pysem::Project &P : Data.Projects)
    Global.append(propgraph::buildProjectGraph(P, Opts));
  return Global;
}

/// The representation table of a one-file graph with one event per entry
/// of \p Events, each carrying that entry's options, most to least
/// specific. Ids follow first occurrence. Hand-built constraint systems
/// take their RepIds from it, and keep every one of them.
inline propgraph::RepTable repTableOf(
    std::initializer_list<std::initializer_list<std::string_view>> Events) {
  propgraph::PropagationGraph Graph;
  const uint32_t File = Graph.addFile("hand.py");
  for (std::initializer_list<std::string_view> Options : Events)
    Graph.addEvent(propgraph::EventKind::Call, propgraph::AllRolesMask, File,
                   {}, Options);
  return propgraph::RepTable(
      std::make_shared<const propgraph::PropagationGraph>(std::move(Graph)));
}

/// The id of \p Rep in \p Reps, which must hold it.
inline propgraph::RepId repIdOf(const propgraph::RepTable &Reps,
                                std::string_view Rep) {
  propgraph::RepId Id = 0;
  EXPECT_TRUE(Reps.lookup(Rep, Id)) << Rep;
  return Id;
}

/// Adds every project of \p Data except the corpus indices in \p Skip to
/// \p Session (relative order preserved) — the survivor set of a
/// quarantine test. Templated so this header stays independent of
/// infer/Pipeline.h.
template <class SessionT>
inline void addProjectsExcept(SessionT &Session, const corpus::Corpus &Data,
                              std::initializer_list<size_t> Skip) {
  auto Skipped = [&](size_t I) {
    for (size_t S : Skip)
      if (S == I)
        return true;
    return false;
  };
  for (size_t I = 0; I < Data.Projects.size(); ++I)
    if (!Skipped(I))
      Session.addProject(Data.Projects[I]);
}

/// Creates a fresh, uniquely named scratch directory under gtest's temp
/// root. Each call returns a different directory, so tests sharing a
/// binary (or running in parallel) never collide.
inline std::string makeScratchDir(const std::string &Prefix) {
  static std::atomic<uint64_t> Seq{0};
  std::string Dir = ::testing::TempDir() + Prefix + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(Seq.fetch_add(1));
  std::filesystem::create_directories(Dir);
  return Dir;
}

} // namespace testutil
} // namespace seldon

#endif // SELDON_TESTS_TESTCORPUS_H
