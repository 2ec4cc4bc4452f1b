//===- tests/specio_test.cpp - Tests for specification serialization ------===//

#include "spec/SpecIO.h"

#include "propgraph/GraphBuilder.h"
#include "pysem/Project.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace seldon;
using namespace seldon::spec;
using namespace seldon::propgraph;

namespace {

/// Writes spec files into a per-test temp directory (cleaned up on exit)
/// for exercising the strict file loaders.
class SpecIOFileTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = std::filesystem::temp_directory_path() /
          ("seldon_specio_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()));
    std::filesystem::create_directories(Dir);
  }
  void TearDown() override {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

  std::string write(const std::string &Name, const std::string &Content) {
    std::string Path = (Dir / Name).string();
    std::ofstream Out(Path, std::ios::binary);
    Out << Content;
    return Path;
  }

  std::filesystem::path Dir;
};

TEST_F(SpecIOFileTest, LearnedSpecFileRoundTrip) {
  LearnedSpec L;
  L.setScore("os.system()", Role::Sink, 0.8);
  std::string Path = (Dir / "spec.txt").string();
  ASSERT_TRUE(saveLearnedSpec(L, Path).ok());
  IOResult<LearnedSpec> Loaded = loadLearnedSpec(Path);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Error;
  EXPECT_NEAR(Loaded.Value.score("os.system()", Role::Sink), 0.8, 1e-9);
}

TEST_F(SpecIOFileTest, TruncatedLearnedSpecFails) {
  // Cut off mid-record: no trailing newline after the last line.
  std::string Path = write("trunc.txt", "sink 0.800000 os.system()\n"
                                        "source 0.75 flask.requ");
  IOResult<LearnedSpec> Loaded = loadLearnedSpec(Path);
  EXPECT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.Error.find("truncated"), std::string::npos)
      << Loaded.Error;
  // Never a partially-populated spec: the complete first record must not
  // leak into the result.
  EXPECT_EQ(Loaded.Value.size(), 0u);
}

TEST_F(SpecIOFileTest, MidRecordCorruptLearnedSpecFails) {
  std::string Path = write("corrupt.txt", "sink 0.4 db.run()\n"
                                          "source 0.5\n"
                                          "wizard 0.5 x()\n");
  IOResult<LearnedSpec> Loaded = loadLearnedSpec(Path);
  EXPECT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.Error.find("corrupt"), std::string::npos)
      << Loaded.Error;
  EXPECT_NE(Loaded.Error.find("line 2"), std::string::npos)
      << Loaded.Error;
  EXPECT_EQ(Loaded.Value.size(), 0u);
}

TEST_F(SpecIOFileTest, TruncatedSeedSpecFails) {
  std::string Path = write("seed.txt", "o: flask.request.args.get()\n"
                                       "i: os.sys");
  IOResult<SeedSpec> Loaded = loadSeedSpec(Path);
  EXPECT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.Error.find("truncated"), std::string::npos)
      << Loaded.Error;
  EXPECT_EQ(Loaded.Value.Spec.size(), 0u);
}

TEST_F(SpecIOFileTest, CorruptSeedSpecFails) {
  std::string Path = write("seed.txt", "o: good()\n"
                                       "q: what-is-this\n");
  IOResult<SeedSpec> Loaded = loadSeedSpec(Path);
  EXPECT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.Error.find("corrupt"), std::string::npos)
      << Loaded.Error;
  EXPECT_EQ(Loaded.Value.Spec.size(), 0u);
}

TEST_F(SpecIOFileTest, EmptyFileLoadsAsEmptySpec) {
  std::string Path = write("empty.txt", "");
  IOResult<LearnedSpec> Loaded = loadLearnedSpec(Path);
  EXPECT_TRUE(Loaded.ok()) << Loaded.Error;
  EXPECT_EQ(Loaded.Value.size(), 0u);
}

TEST_F(SpecIOFileTest, MissingFileFails) {
  IOResult<LearnedSpec> Loaded =
      loadLearnedSpec((Dir / "nope.txt").string());
  EXPECT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.Error.find("cannot read"), std::string::npos);
}

TEST(SpecIOTest, SeedSpecRoundTrip) {
  SeedSpec Seed = SeedSpec::parse("o: flask.request.args.get()\n"
                                  "o: req.GET.get()\n"
                                  "a: bleach.clean()\n"
                                  "i: os.system()\n"
                                  "i: flask.redirect()\n"
                                  "b: *logging*\n"
                                  "b: *.strip()\n");
  std::string Text = writeSeedSpec(Seed);
  std::vector<std::string> Errors;
  SeedSpec Parsed = SeedSpec::parse(Text, &Errors);
  EXPECT_TRUE(Errors.empty());
  EXPECT_EQ(Parsed.Spec.entries(), Seed.Spec.entries());
  EXPECT_EQ(Parsed.Blacklist.patterns(), Seed.Blacklist.patterns());
}

TEST(SpecIOTest, SeedSpecDeterministicOrder) {
  SeedSpec Seed = SeedSpec::parse("o: b()\no: a()\n");
  std::string Text = writeSeedSpec(Seed);
  EXPECT_LT(Text.find("o: a()"), Text.find("o: b()"));
}

TEST(SpecIOTest, PaperSeedRoundTrips) {
  SeedSpec Seed = SeedSpec::parse(paperSeedSpecText());
  SeedSpec Again = SeedSpec::parse(writeSeedSpec(Seed));
  EXPECT_EQ(Again.Spec.size(), Seed.Spec.size());
  EXPECT_EQ(Again.Blacklist.size(), Seed.Blacklist.size());
}

TEST(SpecIOTest, LearnedSpecRoundTrip) {
  LearnedSpec L;
  L.setScore("flask.request.args.get()", Role::Source, 0.75);
  L.setScore("bleach.clean()", Role::Sanitizer, 0.5);
  L.setScore("os.system()", Role::Sink, 1.0);
  L.setScore("dual()", Role::Source, 0.3);
  L.setScore("dual()", Role::Sink, 0.4);

  std::string Text = writeLearnedSpec(L);
  std::vector<std::string> Errors;
  LearnedSpec Parsed = parseLearnedSpec(Text, &Errors);
  EXPECT_TRUE(Errors.empty());
  EXPECT_NEAR(Parsed.score("flask.request.args.get()", Role::Source), 0.75,
              1e-9);
  EXPECT_NEAR(Parsed.score("bleach.clean()", Role::Sanitizer), 0.5, 1e-9);
  EXPECT_NEAR(Parsed.score("os.system()", Role::Sink), 1.0, 1e-9);
  EXPECT_NEAR(Parsed.score("dual()", Role::Source), 0.3, 1e-9);
  EXPECT_NEAR(Parsed.score("dual()", Role::Sink), 0.4, 1e-9);
}

TEST(SpecIOTest, EscapedSubscriptRepRoundTrips) {
  // A subscript key holding a newline, a backslash and a NUL: the builder
  // escapes it, so the learned spec keeps one line per entry and reads
  // back equal.
  pysem::Project Proj;
  const pysem::ModuleInfo &M =
      Proj.addModule("app.py", "import mylib\n"
                               "x = mylib.data['a\\nb\\\\c\\0d']\n");
  PropagationGraph G = buildModuleGraph(Proj, M);
  ASSERT_EQ(G.numEvents(), 1u);
  const std::string Rep = G.event(0).primaryRep();
  EXPECT_EQ(Rep, R"(mylib.data['a\nb\\c\x00d'])");

  LearnedSpec L;
  L.setScore(Rep, Role::Source, 0.75);
  L.setScore("os.system()", Role::Sink, 1.0);
  std::string Text = writeLearnedSpec(L);
  std::vector<std::string> Errors;
  LearnedSpec Parsed = parseLearnedSpec(Text, &Errors);
  EXPECT_TRUE(Errors.empty());
  EXPECT_EQ(Parsed.size(), L.size());
  EXPECT_NEAR(Parsed.score(Rep, Role::Source), 0.75, 1e-9);
  EXPECT_NEAR(Parsed.score("os.system()", Role::Sink), 1.0, 1e-9);
  EXPECT_EQ(writeLearnedSpec(Parsed), Text);
}

TEST(SpecIOTest, LearnedSpecMinScoreFilter) {
  LearnedSpec L;
  L.setScore("hi()", Role::Source, 0.9);
  L.setScore("lo()", Role::Source, 0.05);
  std::string Text = writeLearnedSpec(L, 0.1);
  EXPECT_NE(Text.find("hi()"), std::string::npos);
  EXPECT_EQ(Text.find("lo()"), std::string::npos);
}

TEST(SpecIOTest, LearnedSpecSortedByScore) {
  LearnedSpec L;
  L.setScore("low()", Role::Sink, 0.2);
  L.setScore("high()", Role::Sink, 0.9);
  std::string Text = writeLearnedSpec(L);
  EXPECT_LT(Text.find("high()"), Text.find("low()"));
}

TEST(SpecIOTest, ParseRejectsMalformedLines) {
  std::vector<std::string> Errors;
  LearnedSpec L = parseLearnedSpec("source 0.5 ok()\n"
                                   "gibberish\n"
                                   "wizard 0.5 x()\n"
                                   "source notanumber y()\n"
                                   "source 1.5 z()\n"
                                   "source 0.5\n",
                                   &Errors);
  EXPECT_EQ(L.size(), 1u);
  EXPECT_EQ(Errors.size(), 5u);
}

TEST(SpecIOTest, ParseSkipsCommentsAndBlanks) {
  std::vector<std::string> Errors;
  LearnedSpec L = parseLearnedSpec("# header\n\n  \nsink 0.4 db.run()\n",
                                   &Errors);
  EXPECT_TRUE(Errors.empty());
  EXPECT_NEAR(L.score("db.run()", Role::Sink), 0.4, 1e-9);
}

TEST(SpecIOTest, RepsWithSpacesSurvive) {
  // Parameter representations contain spaces: `media(param f).save()`.
  LearnedSpec L;
  L.setScore("media(param f).save()", Role::Sink, 0.6);
  LearnedSpec Parsed = parseLearnedSpec(writeLearnedSpec(L));
  EXPECT_NEAR(Parsed.score("media(param f).save()", Role::Sink), 0.6, 1e-9);
}

TEST(SpecDiffTest, AddedRemovedDrifted) {
  LearnedSpec Old, New;
  Old.setScore("stays()", Role::Source, 0.5);
  Old.setScore("gone()", Role::Sink, 0.4);
  Old.setScore("drifts()", Role::Sanitizer, 0.3);
  New.setScore("stays()", Role::Source, 0.52); // Below drift delta.
  New.setScore("fresh()", Role::Sink, 0.6);
  New.setScore("drifts()", Role::Sanitizer, 0.8);

  SpecDiff Diff = diffLearnedSpecs(Old, New, 0.1, 0.1);
  ASSERT_EQ(Diff.Added.size(), 1u);
  EXPECT_EQ(Diff.Added[0].first, "fresh()");
  EXPECT_EQ(Diff.Added[0].second, Role::Sink);
  ASSERT_EQ(Diff.Removed.size(), 1u);
  EXPECT_EQ(Diff.Removed[0].first, "gone()");
  ASSERT_EQ(Diff.Drifted.size(), 1u);
  EXPECT_EQ(std::get<0>(Diff.Drifted[0]), "drifts()");
  EXPECT_NEAR(std::get<2>(Diff.Drifted[0]), 0.3, 1e-9);
  EXPECT_NEAR(std::get<3>(Diff.Drifted[0]), 0.8, 1e-9);
}

TEST(SpecDiffTest, IdenticalSpecsAreEmpty) {
  LearnedSpec L;
  L.setScore("a()", Role::Source, 0.7);
  SpecDiff Diff = diffLearnedSpecs(L, L);
  EXPECT_TRUE(Diff.Added.empty());
  EXPECT_TRUE(Diff.Removed.empty());
  EXPECT_TRUE(Diff.Drifted.empty());
  EXPECT_TRUE(renderSpecDiff(Diff).empty());
}

TEST(SpecDiffTest, BelowThresholdIgnored) {
  LearnedSpec Old, New;
  New.setScore("weak()", Role::Source, 0.05); // Never selected.
  SpecDiff Diff = diffLearnedSpecs(Old, New, 0.1);
  EXPECT_TRUE(Diff.Added.empty());
}

TEST(SpecDiffTest, RenderFormat) {
  LearnedSpec Old, New;
  New.setScore("fresh()", Role::Sink, 0.6);
  std::string Text = renderSpecDiff(diffLearnedSpecs(Old, New));
  EXPECT_EQ(Text, "+ sink fresh()\n");
}

} // namespace
