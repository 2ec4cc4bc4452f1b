//===- tests/corpus_test.cpp - Tests for the synthetic corpus -------------===//

#include "corpus/ApiUniverse.h"
#include "corpus/CorpusGenerator.h"
#include "propgraph/GraphBuilder.h"

#include <gtest/gtest.h>

#include <unordered_set>

using namespace seldon;
using namespace seldon::corpus;
using namespace seldon::propgraph;

namespace {

/// The lexer and parser diagnostics the graph build reports for \p P.
size_t parseDiagnostics(const pysem::Project &P) {
  std::vector<pyast::ParseError> Errors;
  buildProjectGraph(P, BuildOptions(), &Errors);
  return Errors.size();
}

//===----------------------------------------------------------------------===//
// GroundTruth
//===----------------------------------------------------------------------===//

TEST(GroundTruthTest, BasicQueries) {
  GroundTruth T;
  T.add("a()", SourceMask, "xss");
  T.add("b()", SinkMask | SanitizerMask);
  EXPECT_TRUE(T.isTrue("a()", Role::Source));
  EXPECT_FALSE(T.isTrue("a()", Role::Sink));
  EXPECT_TRUE(T.isTrue("b()", Role::Sink));
  EXPECT_TRUE(T.isTrue("b()", Role::Sanitizer));
  EXPECT_FALSE(T.isTrue("c()", Role::Source));
  EXPECT_EQ(T.vulnClassOf("a()"), "xss");
  EXPECT_TRUE(T.vulnClassOf("b()").empty());
}

TEST(GroundTruthTest, AnyTrueOverBackoffOptions) {
  GroundTruth T;
  T.add("general()", SourceMask);
  EXPECT_TRUE(T.anyTrue({"specific()", "general()"}, Role::Source));
  EXPECT_FALSE(T.anyTrue({"specific()"}, Role::Source));
}

TEST(GroundTruthTest, RoleListsAreSortedAndComplete) {
  GroundTruth T;
  T.add("z()", SourceMask);
  T.add("a()", SourceMask | SinkMask);
  T.add("m()", SanitizerMask);
  const std::vector<std::string> &Sources = T.repsWithRole(Role::Source);
  ASSERT_EQ(Sources.size(), 2u);
  EXPECT_EQ(Sources[0], "a()");
  EXPECT_EQ(Sources[1], "z()");
  EXPECT_EQ(T.countWithRole(Role::Sanitizer), 1u);
  EXPECT_EQ(T.countWithRole(Role::Sink), 1u);
}

TEST(GroundTruthTest, RoleListsAreDerivedOncePerCorpus) {
  GroundTruth T;
  T.add("a()", SourceMask);
  T.add("b()", SinkMask);
  EXPECT_EQ(T.derivations(), 0u); // Lazy: nothing derived until asked.
  for (int I = 0; I < 10; ++I) {
    T.repsWithRole(Role::Source);
    T.countWithRole(Role::Sink);
    T.countWithRole(Role::Sanitizer);
  }
  EXPECT_EQ(T.derivations(), 1u)
      << "repeated role queries must hit the memo, not re-derive";
  // A mutation invalidates the memo; the next query re-derives once.
  T.add("c()", SanitizerMask);
  EXPECT_EQ(T.repsWithRole(Role::Sanitizer).size(), 1u);
  EXPECT_EQ(T.countWithRole(Role::Source), 1u);
  EXPECT_EQ(T.derivations(), 2u);
}

//===----------------------------------------------------------------------===//
// ApiUniverse
//===----------------------------------------------------------------------===//

TEST(ApiUniverseTest, StandardUniverseShape) {
  ApiUniverse U = ApiUniverse::standard();
  EXPECT_GT(U.sources().size(), 100u);
  EXPECT_GT(U.sanitizers().size(), 100u);
  EXPECT_GT(U.sinks().size(), 100u);
  EXPECT_GT(U.neutrals().size(), 200u);
}

TEST(ApiUniverseTest, SeedIsSmallSubset) {
  ApiUniverse U = ApiUniverse::standard();
  spec::SeedSpec Seed = U.seedSpec();
  size_t SeedEntries = Seed.Spec.size();
  size_t AllRoleApis =
      U.sources().size() + U.sanitizers().size() + U.sinks().size();
  EXPECT_GT(SeedEntries, 10u);
  EXPECT_LT(SeedEntries * 5, AllRoleApis)
      << "the seed must label only a small fraction of role APIs";
  EXPECT_GT(Seed.Blacklist.size(), 10u);
}

TEST(ApiUniverseTest, ClassFilteredPools) {
  ApiUniverse U = ApiUniverse::standard();
  for (const std::string &Cls : ApiUniverse::vulnClasses()) {
    EXPECT_FALSE(U.sanitizersOf(Cls).empty()) << Cls;
    EXPECT_FALSE(U.sinksOf(Cls).empty()) << Cls;
  }
}

TEST(ApiUniverseTest, GroundTruthCoversAllRoleApis) {
  ApiUniverse U = ApiUniverse::standard();
  GroundTruth T = U.groundTruth();
  for (const ApiInfo &A : U.sources())
    EXPECT_TRUE(T.isTrue(A.Rep, Role::Source)) << A.Rep;
  for (const ApiInfo &A : U.sinks())
    EXPECT_TRUE(T.isTrue(A.Rep, Role::Sink)) << A.Rep;
  for (const ApiInfo &A : U.neutrals())
    EXPECT_EQ(T.rolesOf(A.Rep), 0) << A.Rep;
}

TEST(ApiUniverseTest, DeclaredRepsMatchGraphBuilderRendering) {
  // Critical consistency property: for every API, the representation the
  // universe declares must be exactly what the graph builder renders for
  // the API's expression — otherwise seeds and ground truth would not
  // match any event.
  ApiUniverse U = ApiUniverse::standard();
  auto CheckApi = [&](const ApiInfo &A) {
    std::string Source;
    if (!A.Import.empty())
      Source += A.Import + "\n";
    std::string Expr = A.Expr;
    size_t Slot = Expr.find("{}");
    if (Slot != std::string::npos)
      Expr.replace(Slot, 2, "payload");
    Source += "probe = " + Expr + "\n";

    pysem::Project Proj;
    const pysem::ModuleInfo &M = Proj.addModule("probe.py", Source);
    std::vector<pyast::ParseError> Errors;
    PropagationGraph G = buildModuleGraph(Proj, M, BuildOptions(), &Errors);
    ASSERT_TRUE(Errors.empty()) << A.Rep << ": " << Source;
    bool Found = false;
    for (const Event &E : G.events())
      Found |= E.primaryRep() == A.Rep;
    EXPECT_TRUE(Found) << "no event with rep '" << A.Rep
                       << "' for source:\n"
                       << Source;
  };
  // Hand-written core APIs (the procedural tail shares its shape with the
  // first few, so checking a prefix of each pool suffices).
  for (size_t I = 0; I < U.sources().size() && I < 15; ++I)
    CheckApi(U.sources()[I]);
  for (size_t I = 0; I < U.sanitizers().size() && I < 15; ++I)
    CheckApi(U.sanitizers()[I]);
  for (size_t I = 0; I < U.sinks().size() && I < 15; ++I)
    CheckApi(U.sinks()[I]);
  // And a slice of the procedural tail.
  CheckApi(U.sources().back());
  CheckApi(U.sanitizers().back());
  CheckApi(U.sinks().back());
  CheckApi(U.neutrals().back());
}

TEST(TaintSlotSuffixTest, PositionalAndKeywordSlots) {
  EXPECT_EQ(taintSlotSuffix("flask.redirect({})").value_or(""), "[arg0]");
  EXPECT_EQ(taintSlotSuffix("flask.send_from_directory(ROOT, {})")
                .value_or(""),
            "[arg1]");
  EXPECT_EQ(taintSlotSuffix("os.system('convert ' + {})").value_or(""),
            "[arg0]");
  EXPECT_EQ(
      taintSlotSuffix("flask.render_template('page.html', data={})")
          .value_or(""),
      "[kw:data]");
  EXPECT_EQ(taintSlotSuffix(
                "sqlite3.connect(DB).cursor().execute('SELECT ' + {})")
                .value_or(""),
            "[arg0]");
}

TEST(TaintSlotSuffixTest, NoSlot) {
  EXPECT_FALSE(taintSlotSuffix("flask.url_for('index')").has_value());
  EXPECT_FALSE(taintSlotSuffix("{} + 1").has_value()) << "slot outside call";
}

TEST(TaintSlotSuffixTest, AllUniverseSinksHaveSlots) {
  ApiUniverse U = ApiUniverse::standard();
  for (const ApiInfo &A : U.sinks())
    EXPECT_TRUE(taintSlotSuffix(A.Expr).has_value()) << A.Rep;
  for (const ApiInfo &A : U.sanitizers())
    EXPECT_TRUE(taintSlotSuffix(A.Expr).has_value()) << A.Rep;
}

//===----------------------------------------------------------------------===//
// Corpus generation
//===----------------------------------------------------------------------===//

CorpusOptions smallOptions() {
  CorpusOptions Opts;
  Opts.NumProjects = 12;
  Opts.Seed = 7;
  return Opts;
}

TEST(CorpusGeneratorTest, Deterministic) {
  Corpus A = generateCorpus(smallOptions());
  Corpus B = generateCorpus(smallOptions());
  ASSERT_EQ(A.Projects.size(), B.Projects.size());
  ASSERT_EQ(A.NumFiles, B.NumFiles);
  for (size_t P = 0; P < A.Projects.size(); ++P) {
    const auto &MA = A.Projects[P].modules();
    const auto &MB = B.Projects[P].modules();
    ASSERT_EQ(MA.size(), MB.size());
    for (size_t F = 0; F < MA.size(); ++F)
      EXPECT_EQ(MA[F].Path, MB[F].Path);
  }
  EXPECT_EQ(A.Flows.size(), B.Flows.size());
}

TEST(CorpusGeneratorTest, DifferentSeedsDiffer) {
  CorpusOptions O1 = smallOptions(), O2 = smallOptions();
  O2.Seed = 99;
  Corpus A = generateCorpus(O1);
  Corpus B = generateCorpus(O2);
  EXPECT_NE(A.TotalLines, B.TotalLines);
}

TEST(CorpusGeneratorTest, GeneratedFilesParseCleanly) {
  Corpus C = generateCorpus(smallOptions());
  EXPECT_GT(C.NumFiles, 0u);
  for (const pysem::Project &P : C.Projects)
    EXPECT_EQ(parseDiagnostics(P), 0u) << "project " << P.name();
}

TEST(CorpusGeneratorTest, FlowMixPresent) {
  CorpusOptions Opts = smallOptions();
  Opts.NumProjects = 40;
  Corpus C = generateCorpus(Opts);
  size_t Sanitized = 0, Vulnerable = 0, WrongParam = 0, NonExploit = 0;
  for (const GeneratedFlow &F : C.Flows) {
    Sanitized += F.Sanitized;
    Vulnerable += !F.Sanitized && !F.WrongParam && F.Exploitable;
    WrongParam += F.WrongParam;
    NonExploit += !F.Sanitized && !F.WrongParam && !F.Exploitable;
  }
  EXPECT_GT(Sanitized, 0u);
  EXPECT_GT(Vulnerable, 0u);
  EXPECT_GT(WrongParam, 0u);
  EXPECT_GT(NonExploit, 0u);
}

TEST(CorpusGeneratorTest, FlowRecordsMatchGraphEvents) {
  // Every recorded flow endpoint must exist as an event representation in
  // the built graph of its file.
  CorpusOptions Opts = smallOptions();
  Opts.NumProjects = 4;
  Corpus C = generateCorpus(Opts);
  for (const pysem::Project &P : C.Projects) {
    PropagationGraph G = buildProjectGraph(P);
    std::unordered_set<std::string> RepsByFile;
    for (const Event &E : G.events())
      for (const std::string &R : E.Reps)
        RepsByFile.insert(G.fileOf(E) + "|" + R);
    for (const GeneratedFlow &F : C.Flows) {
      bool InProject = false;
      for (const pysem::ModuleInfo &M : P.modules())
        InProject |= M.Path == F.File;
      if (!InProject)
        continue;
      EXPECT_TRUE(RepsByFile.count(F.File + "|" + F.SrcRep))
          << "missing source event " << F.SrcRep << " in " << F.File;
      EXPECT_TRUE(RepsByFile.count(F.File + "|" + F.SnkRep))
          << "missing sink event " << F.SnkRep << " in " << F.File;
    }
  }
}

TEST(CorpusGeneratorTest, WrapperSanitizersRegisteredInTruth) {
  CorpusOptions Opts = smallOptions();
  Opts.NumProjects = 30;
  Opts.PWrapperSanitizer = 1.0;
  Corpus C = generateCorpus(Opts);
  bool AnyWrapper = false;
  for (const char *W : {"sanitize_input()", "clean_value()", "escape_data()",
                        "normalize_field()", "filter_payload()"})
    AnyWrapper |= C.Truth.isTrue(W, Role::Sanitizer);
  EXPECT_TRUE(AnyWrapper);
}

TEST(CorpusGeneratorTest, ParamHandlerSourcesRegistered) {
  CorpusOptions Opts = smallOptions();
  Opts.NumProjects = 40;
  Opts.PParamHandler = 1.0;
  Opts.PSanitized = Opts.PVulnerable = Opts.PWrongParam = 0.0;
  Corpus C = generateCorpus(Opts);
  EXPECT_TRUE(C.Truth.isTrue("view_profile(param username)", Role::Source) ||
              C.Truth.isTrue("search_items(param query)", Role::Source));
}

TEST(CorpusGeneratorTest, SharedUtilsModuleEmittedAndRegistered) {
  CorpusOptions Opts = smallOptions();
  Opts.NumProjects = 30;
  Opts.PUtilsSanitizer = 1.0; // Every sanitized flow goes through utils.
  Corpus C = generateCorpus(Opts);
  size_t UtilsFiles = 0;
  for (const pysem::Project &P : C.Projects)
    for (const pysem::ModuleInfo &M : P.modules())
      UtilsFiles += M.Path.find("utils.py") != std::string::npos;
  EXPECT_GT(UtilsFiles, 0u);
  bool AnyTruth = false;
  for (const char *W :
       {"utils.sanitize_input()", "utils.clean_value()",
        "utils.escape_data()", "utils.normalize_field()",
        "utils.filter_payload()"})
    AnyTruth |= C.Truth.isTrue(W, Role::Sanitizer);
  EXPECT_TRUE(AnyTruth);
  // Projects without utils usage get no utils.py.
  CorpusOptions NoUtils = smallOptions();
  NoUtils.PUtilsSanitizer = 0.0;
  Corpus C2 = generateCorpus(NoUtils);
  for (const pysem::Project &P : C2.Projects)
    for (const pysem::ModuleInfo &M : P.modules())
      EXPECT_EQ(M.Path.find("utils.py"), std::string::npos);
}

TEST(CorpusGeneratorTest, SingleProjectSizing) {
  ApiUniverse U = ApiUniverse::standard();
  pysem::Project Small = generateSingleProject(U, 1, 2, 6, "small");
  pysem::Project Large = generateSingleProject(U, 2, 20, 8, "large");
  EXPECT_EQ(Small.modules().size(), 2u);
  EXPECT_EQ(Large.modules().size(), 20u);
  EXPECT_EQ(parseDiagnostics(Small), 0u);
  EXPECT_EQ(parseDiagnostics(Large), 0u);
}

TEST(CorpusGeneratorTest, LineCountTracked) {
  Corpus C = generateCorpus(smallOptions());
  EXPECT_GT(C.TotalLines, 100u);
}

} // namespace
