//===- tests/format_golden_test.cpp - Pinned on-disk byte formats ---------===//
//
// Golden hashes of every on-disk format: a graph built from one generated
// project, that graph's constraint shard, one state snapshot, one journal
// (header plus a record), and the cache entries both caches write for the
// project, file name included. Cache and state directories written by an
// earlier build stay readable only while these bytes stay the same, so a
// failure here means a format changed: bump the codec's version constant,
// then record the new hashes.
//
// Beside them sits the digest of the constraint system generated from a
// fixed corpus. Direct generation and shard composition share one Fig. 4
// emitter, so comparing them with each other cannot catch a change to
// what both emit; this digest can. A failure there means the generated
// system changed, and with it every learned score.
//
// Last, the point-query answers are pinned: the wire JSON and the text of
// every variable's explanation under a fixed solve, passive and with
// feedback rows, on the scan and on the row index. The two paths share
// one walk and one renderer, so comparing them with each other cannot
// catch a change to what both render; this digest can. A failure there
// means `seldond`'s `query` and `seldon explain` output changed.
//
//===----------------------------------------------------------------------===//

#include "TestCorpus.h"

#include "cache/GraphCache.h"
#include "cache/ShardCache.h"
#include "constraints/Explain.h"
#include "constraints/ShardCodec.h"
#include "infer/Pipeline.h"
#include "propgraph/GraphCodec.h"
#include "service/QueryResult.h"
#include "service/StateCodec.h"
#include "support/BinaryCodec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>

using namespace seldon;

namespace {

std::string hex(uint64_t Value) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(Value));
  return Buf;
}

/// FNV-1a-64 of \p Bytes, printed as hex so a failure shows the new value.
std::string digest(std::string_view Bytes) {
  return hex(codec::fnv1a64(Bytes));
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

/// The fixed inputs: the first project of the seed-4242 test corpus, its
/// graph under default build options, and that graph's whole-file shard.
struct Inputs {
  corpus::Corpus Data = testutil::makeCorpus(4242, /*NumProjects=*/2);
  const pysem::Project &Proj = Data.Projects.front();
  propgraph::PropagationGraph Graph = propgraph::buildProjectGraph(Proj);
  constraints::ConstraintShard Shard = constraints::extractShard(
      Graph, 0, static_cast<uint32_t>(Graph.files().size()));
  cache::CacheKey GraphKey =
      cache::projectCacheKey(Proj, propgraph::BuildOptions());
  cache::CacheKey ShardKey = cache::projectShardKey(
      GraphKey, constraints::GenOptions(), Data.Seed);
};

/// FNV-1a-64 of a constraint system: its variable table, its pins, every
/// row's terms, coefficient bits and slack C, and the candidate statistics.
std::string systemDigest(const constraints::ConstraintSystem &Sys) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  auto Bits = [](auto Value) {
    uint64_t Out = 0;
    std::memcpy(&Out, &Value, sizeof(Value));
    return Out;
  };
  auto Terms = [&](std::span<const solver::Term> Ts) {
    codec::hashValue(Hash, Ts.size());
    for (const solver::Term &T : Ts) {
      codec::hashValue(Hash, T.Var);
      codec::hashValue(Hash, Bits(T.Coef));
    }
  };
  codec::hashValue(Hash, Sys.Vars.numVars());
  for (uint32_t V = 0; V < Sys.Vars.numVars(); ++V) {
    codec::hashValue(Hash, Sys.Vars.repOf(V));
    codec::hashValue(Hash, static_cast<uint64_t>(Sys.Vars.roleOf(V)));
  }
  codec::hashValue(Hash, Sys.Pinned.size());
  for (const auto &[Var, Value] : Sys.Pinned) {
    codec::hashValue(Hash, Var);
    codec::hashValue(Hash, Bits(Value));
  }
  codec::hashValue(Hash, Sys.Constraints.size());
  for (const solver::LinearConstraint &LC : Sys.Constraints) {
    Terms(LC.Lhs);
    Terms(LC.Rhs);
    codec::hashValue(Hash, Bits(LC.C));
  }
  codec::hashValue(Hash, Sys.NumCandidates);
  codec::hashValue(Hash, Bits(Sys.AvgBackoffOptions));
  return hex(Hash);
}

/// The system a session generates for \p Data: directly, or composed from
/// the shards in \p ShardDir when it is non-empty.
std::string generatedDigest(const corpus::Corpus &Data, unsigned Jobs,
                            size_t MaxPairs, const std::string &ShardDir = "",
                            bool Collapse = false) {
  infer::PipelineOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Gen.MaxPairsPerAnchor = MaxPairs;
  Opts.CollapseForLearning = Collapse;
  infer::Session S(std::move(Opts));
  if (!ShardDir.empty())
    S.enableShardCache(ShardDir);
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  return systemDigest(S.system());
}

service::StateSnapshot snapshot() {
  service::StateSnapshot S;
  S.LastSeq = 42;
  S.Fingerprint = 0x1234'5678'9abc'def0ull;
  S.Solve.X = {0.0, 1.0, 0.1, 1.0 / 3.0, 0.30000000000000004, -0.0};
  S.Solve.FinalObjective = 0.0625;
  S.Solve.Iterations = 600;
  S.Solve.Converged = true;
  S.Solve.NonFiniteSteps = 1;
  S.Solve.Recoveries = 2;
  S.FeedbackOpts.AcceptWeight = 1.5;
  S.FeedbackOpts.RejectWeight = 0.5;
  S.FeedbackOpts.SimilarityDecay = 0.25;
  S.Feedback.push_back({"flask.escape()", propgraph::Role::Sanitizer, true});
  S.Feedback.push_back({"eval()", propgraph::Role::Sink, false});
  return S;
}

service::JournalRecord record() {
  service::JournalRecord R;
  R.Seq = 7;
  R.Op = service::JournalOp::Feedback;
  R.Entries.push_back({"flask.escape()", propgraph::Role::Sanitizer, true});
  R.Entries.push_back({"os.system()", propgraph::Role::Sink, false});
  R.FeedbackOpts.AcceptWeight = 2.5;
  R.FeedbackOpts.RejectWeight = 0.75;
  R.FeedbackOpts.SimilarityDecay = 0.125;
  R.Iters = 321;
  R.WarmStart = true;
  return R;
}

TEST(FormatGoldenTest, GraphEncodingIsPinned) {
  Inputs In;
  EXPECT_EQ(digest(propgraph::encodeGraph(In.Graph)), "0xa6bef51c8918a74a");
}

TEST(FormatGoldenTest, ShardEncodingIsPinned) {
  Inputs In;
  EXPECT_EQ(digest(constraints::encodeShard(In.Shard)),
            "0xc1f00158bda61ebe");
}

TEST(FormatGoldenTest, SnapshotEncodingIsPinned) {
  EXPECT_EQ(digest(service::encodeSnapshot(snapshot())),
            "0xdbf9c8faa3036085");
}

TEST(FormatGoldenTest, JournalEncodingIsPinned) {
  EXPECT_EQ(digest(service::journalHeader() +
                   service::encodeJournalRecord(record())),
            "0xf5157d4cfe0bd4fd");
}

TEST(FormatGoldenTest, CacheEntriesArePinned) {
  Inputs In;
  std::string Dir = testutil::makeScratchDir("format-golden");
  cache::GraphCache Graphs(Dir);
  cache::ShardCache Shards(Dir);
  ASSERT_TRUE(Graphs.store(In.GraphKey, In.Graph));
  ASSERT_TRUE(Shards.store(In.ShardKey, In.Shard));

  EXPECT_EQ(Graphs.entryPath(In.GraphKey), Dir + "/74ab97268d746079.spg");
  EXPECT_EQ(digest(slurp(Graphs.entryPath(In.GraphKey))),
            "0x2d9d4f4a949c6a58");
  EXPECT_EQ(Shards.entryPath(In.ShardKey), Dir + "/c101de2bb881a4e1.scs");
  EXPECT_EQ(digest(slurp(Shards.entryPath(In.ShardKey))),
            "0x5d51edc8b21991c9");
  std::filesystem::remove_all(Dir);
}

/// The generated constraint system is pinned too: direct generation at any
/// job count, and shard composition cold and warm, all reproduce it, at the
/// default pair cap and at a cap of 1 that drops pairs.
TEST(FormatGoldenTest, GeneratedSystemIsPinned) {
  corpus::Corpus Data = testutil::makeCorpus(4242, /*NumProjects=*/6);
  for (size_t MaxPairs : {size_t(4096), size_t(1)}) {
    const std::string Pinned =
        MaxPairs == 1 ? "0x4b7c0ce782d04925" : "0x699dffbc9f022def";
    for (unsigned Jobs : {1u, 4u}) {
      SCOPED_TRACE("cap " + std::to_string(MaxPairs) + ", jobs " +
                   std::to_string(Jobs));
      EXPECT_EQ(generatedDigest(Data, Jobs, MaxPairs), Pinned) << "direct";
      std::string Dir = testutil::makeScratchDir("system-golden");
      EXPECT_EQ(generatedDigest(Data, Jobs, MaxPairs, Dir), Pinned)
          << "composed, cold";
      EXPECT_EQ(generatedDigest(Data, Jobs, MaxPairs, Dir), Pinned)
          << "composed, warm";
      std::filesystem::remove_all(Dir);
    }
  }
  EXPECT_EQ(generatedDigest(Data, 4, 4096, "", /*Collapse=*/true),
            "0xac8dace8744e88d4");
}

/// FNV-1a-64 over the JSON and text answer to every variable of \p R's
/// system, plus one not-found query, found by a scan or, with \p Index,
/// through the daemon's row index.
std::string queryDigest(const infer::PipelineResult &R,
                        const constraints::RowIndex *Index = nullptr) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  auto Fold = [&](const service::QueryResult &Q) {
    codec::hashChunk(Hash, service::renderQueryJson(Q));
    codec::hashChunk(Hash, service::renderQueryText(Q));
  };
  const constraints::VarTable &Vars = R.System.Vars;
  for (uint32_t V = 0; V < Vars.numVars(); ++V)
    Fold(service::queryRep(R.System, R.Reps,
                           R.Reps.repString(Vars.repOf(V)), Vars.roleOf(V),
                           R.Solve.X, Index));
  service::QueryResult Missing =
      service::queryRep(R.System, R.Reps, "never.seen()",
                        propgraph::Role::Sink, R.Solve.X, Index);
  EXPECT_FALSE(Missing.Found);
  Fold(Missing);
  return hex(Hash);
}

/// Every query answer is pinned, after a passive solve and after a solve
/// that carries weighted, decayed feedback rows, on the scan `seldon
/// explain` takes and on the index `seldond` takes.
TEST(FormatGoldenTest, QueryAnswersArePinned) {
  corpus::Corpus Data = testutil::makeCorpus(4242, /*NumProjects=*/6);
  auto Solve = [&](const constraints::FeedbackSet *Feedback) {
    infer::PipelineOptions Opts;
    Opts.Jobs = 1;
    Opts.Solve.MaxIterations = 300;
    Opts.Feedback = Feedback;
    Opts.FeedbackOpts.AcceptWeight = 2.0;
    Opts.FeedbackOpts.RejectWeight = 1.5;
    Opts.FeedbackOpts.SimilarityDecay = 0.25;
    infer::Session S(std::move(Opts));
    S.addProjects(Data.Projects);
    S.generateConstraints(Data.Seed);
    return S.solve();
  };
  auto ExpectDigest = [](const infer::PipelineResult &R,
                         const std::string &Pinned, const char *What) {
    constraints::RowIndex Index = constraints::buildRowIndex(R.System);
    EXPECT_EQ(queryDigest(R), Pinned) << What << ", scanned";
    EXPECT_EQ(queryDigest(R, &Index), Pinned) << What << ", indexed";
  };
  infer::PipelineResult Passive = Solve(nullptr);
  ExpectDigest(Passive, "0x6381fe8a60b1bc61", "passive");

  // One verdict per role on the most specific option of the first event
  // whose two leading options both have a variable in that role, so the
  // decayed similarity rows appear as well.
  const constraints::ConstraintSystem &Sys = Passive.System;
  constraints::FeedbackSet Verdicts;
  for (propgraph::Role R : {propgraph::Role::Source,
                            propgraph::Role::Sanitizer,
                            propgraph::Role::Sink}) {
    for (std::span<const propgraph::RepId> Options : Sys.EventReps) {
      constraints::VarId V;
      if (Options.size() < 2 || !Sys.Vars.lookup(Options[0], R, V) ||
          !Sys.Vars.lookup(Options[1], R, V))
        continue;
      const std::string &Rep = Passive.Reps.repString(Options[0]);
      if (R == propgraph::Role::Sink)
        Verdicts.reject(Rep, R);
      else
        Verdicts.accept(Rep, R);
      break;
    }
  }
  infer::PipelineResult Guided = Solve(&Verdicts);
  EXPECT_GT(Guided.Feedback.EvidenceRows, 0u);
  EXPECT_GT(Guided.Feedback.PropagatedRows, 0u);
  ExpectDigest(Guided, "0x5ff504a3f805ca0d", "feedback");
}

} // namespace
