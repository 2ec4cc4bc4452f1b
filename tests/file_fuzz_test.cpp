//===- tests/file_fuzz_test.cpp - Seeded mutation fuzz of the input files ===//
//
// Mutates a valid seed specification, learned specification, feedback file
// and oracle file with the shared mutator (Mutator.h) and loads each mutant
// from disk the way the tools do: spec::loadSeedSpec,
// spec::loadLearnedSpec, service::loadFeedbackFile and
// active::FileOracle::load. Whatever the bytes, a load returns a value or
// an error and never throws; a specification that loads reaches a fixed
// point after one write-then-load round, so what a tool writes back it
// reads back unchanged.
//
// scripts/check.sh runs this suite under ASan and UBSan, the short
// instantiation in its filter and the DISABLED_ long one with
// --gtest_also_run_disabled_tests: these files are user input, read by
// hand-written parsers.
//
//===----------------------------------------------------------------------===//

#include "Mutator.h"
#include "TestCorpus.h"

#include "active/Oracle.h"
#include "service/FeedbackJson.h"
#include "spec/SpecIO.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

using namespace seldon;

namespace {

/// Writes \p Text to \p Path byte for byte.
void writeText(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
}

class FileFuzzTest : public ::testing::TestWithParam<testutil::FuzzRun> {
protected:
  void SetUp() override {
    Dir = testutil::makeScratchDir("file-fuzz");
    Path = Dir + "/input";
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  /// Writes each mutant of \p Base to Path and runs \p Check on it; stops
  /// at the first failing mutant and prints its text.
  template <typename CheckFn>
  void fuzz(const std::string &Base, CheckFn Check) {
    Rng Random(GetParam().Seed);
    for (size_t I = 0; I < GetParam().Mutants; ++I) {
      std::string Text = testutil::mutate(Base, Random);
      writeText(Path, Text);
      Check();
      if (HasFailure()) {
        ADD_FAILURE() << "mutant " << I << " failed; its text:\n" << Text;
        return;
      }
    }
  }

  std::string Dir, Path;
};

TEST_P(FileFuzzTest, SeedSpecsLoadOrFail) {
  fuzz(spec::paperSeedSpecText(), [&] {
    spec::IOResult<spec::SeedSpec> Loaded;
    ASSERT_NO_THROW(Loaded = spec::loadSeedSpec(Path));
    if (!Loaded.ok())
      return;
    std::string Written = spec::writeSeedSpec(Loaded.Value);
    writeText(Path, Written);
    spec::IOResult<spec::SeedSpec> Again = spec::loadSeedSpec(Path);
    ASSERT_TRUE(Again.ok()) << Again.Error;
    EXPECT_EQ(spec::writeSeedSpec(Again.Value), Written);
  });
}

TEST_P(FileFuzzTest, LearnedSpecsLoadOrFail) {
  spec::LearnedSpec Learned;
  Learned.setScore("flask.request.args.get()", propgraph::Role::Source, 0.97);
  Learned.setScore("flask.escape()", propgraph::Role::Sanitizer, 0.123456789);
  Learned.setScore("os.system()", propgraph::Role::Sink, 1.0);
  Learned.setScore("app.clean(param v)", propgraph::Role::Sanitizer, 0.5);
  Learned.setScore("app.clean(param v)", propgraph::Role::Sink, 0.25);
  fuzz(spec::writeLearnedSpec(Learned), [&] {
    spec::IOResult<spec::LearnedSpec> Loaded;
    ASSERT_NO_THROW(Loaded = spec::loadLearnedSpec(Path));
    if (!Loaded.ok())
      return;
    std::string Written = spec::writeLearnedSpec(Loaded.Value);
    writeText(Path, Written);
    spec::IOResult<spec::LearnedSpec> Again = spec::loadLearnedSpec(Path);
    ASSERT_TRUE(Again.ok()) << Again.Error;
    EXPECT_EQ(spec::writeLearnedSpec(Again.Value), Written);
  });
}

TEST_P(FileFuzzTest, FeedbackFilesLoadOrFail) {
  fuzz(R"j({"accept":[{"rep":"flask.escape()","role":"sanitizer"},)j"
       R"j({"rep":"os.system()","role":"sink"}],)j"
       R"j("reject":[{"rep":"request.args.get()","role":"sanitizer"}]})j",
       [&] {
         constraints::FeedbackSet Set;
         std::string Error;
         bool Ok = false;
         ASSERT_NO_THROW(Ok = service::loadFeedbackFile(Path, Set, Error));
         EXPECT_TRUE(Ok || !Error.empty());
       });
}

TEST_P(FileFuzzTest, OracleFilesLoadOrFail) {
  fuzz(R"j({"answers":[{"rep":"flask.escape()","role":"sanitizer",)j"
       R"j("truth":true},{"rep":"eval()","role":"sink","truth":false}]})j",
       [&] {
         active::FileOracle Oracle;
         std::string Error;
         bool Ok = false;
         ASSERT_NO_THROW(Ok = active::FileOracle::load(Path, Oracle, Error));
         EXPECT_TRUE(Ok || !Error.empty());
       });
}

INSTANTIATE_TEST_SUITE_P(Budget, FileFuzzTest,
                         ::testing::Values(testutil::FuzzRun{7, 300}));
INSTANTIATE_TEST_SUITE_P(DISABLED_Long, FileFuzzTest,
                         ::testing::Values(testutil::FuzzRun{1001, 10000}));

} // namespace
