//===- tests/shared_flags_test.cpp - The flags seldon and seldond share ---===//
//
// The one flag table both binaries register (tools/SharedFlags.h): what
// each flag fills in the run set-up, the checks that name the bad value,
// the --jobs clamp, and the metrics exit. The binaries themselves are
// driven on the same bad inputs in cli_test.
//
//===----------------------------------------------------------------------===//

#include "SharedFlags.h"

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

namespace fs = std::filesystem;
using namespace seldon;

namespace {

/// One command line through a parser holding only the shared flags.
struct Parsed {
  infer::RunConfig Run;
  ArgParser Parser;
  SharedFlags Flags{Parser, Run};
  bool Ok = false;
  /// What parse() and check() printed.
  std::string Stderr;

  explicit Parsed(std::vector<std::string> Args) {
    std::vector<char *> Argv{const_cast<char *>("test")};
    for (std::string &A : Args)
      Argv.push_back(A.data());
    ::testing::internal::CaptureStderr();
    Ok = Parser.parse(static_cast<int>(Argv.size()), Argv.data(), 1,
                      &Run.CorpusDirs) &&
         Flags.check();
    Stderr = ::testing::internal::GetCapturedStderr();
  }
};

TEST(SharedFlagsTest, EveryFlagFillsTheRunConfig) {
  Parsed P({"--seed", "s.spec", "--cache-dir", "cache", "--shard-cache",
            "--iters=7", "--cutoff", "2", "--jobs", "3", "--threshold",
            "0.5", "--strict", "--metrics", "--metrics-out", "m.json",
            "dirA", "dirB"});
  ASSERT_TRUE(P.Ok) << P.Stderr;
  EXPECT_EQ(P.Run.SeedFile, "s.spec");
  EXPECT_EQ(P.Run.CacheDir, "cache");
  EXPECT_TRUE(P.Run.ShardCache);
  EXPECT_EQ(P.Run.Iterations, 7);
  EXPECT_EQ(P.Run.RepCutoff, 2u);
  EXPECT_EQ(P.Run.Jobs, 3u);
  EXPECT_DOUBLE_EQ(P.Run.Threshold, 0.5);
  EXPECT_TRUE(P.Run.Strict);
  EXPECT_TRUE(P.Flags.wantsMetrics());
  EXPECT_EQ(P.Run.CorpusDirs, (std::vector<std::string>{"dirA", "dirB"}));
}

TEST(SharedFlagsTest, AbsentFlagsKeepTheRunConfigDefaults) {
  Parsed P({"dir"});
  ASSERT_TRUE(P.Ok) << P.Stderr;
  infer::RunConfig Default;
  EXPECT_EQ(P.Run.SeedFile, Default.SeedFile);
  EXPECT_EQ(P.Run.Iterations, Default.Iterations);
  EXPECT_EQ(P.Run.RepCutoff, Default.RepCutoff);
  EXPECT_EQ(P.Run.Jobs, Default.Jobs);
  EXPECT_EQ(P.Run.Threshold, Default.Threshold);
  EXPECT_FALSE(P.Run.Strict);
  EXPECT_FALSE(P.Run.ShardCache);
  EXPECT_FALSE(P.Flags.wantsMetrics());
  EXPECT_EQ(P.Stderr, "");
}

TEST(SharedFlagsTest, ChecksRejectAndNameTheBadValue) {
  struct Case {
    std::vector<std::string> Args;
    const char *Says;
  };
  const Case Cases[] = {
      {{"--iters", "0"}, "error: --iters must be in [1, 10000000], got 0\n"},
      {{"--iters", "10000001"},
       "error: --iters must be in [1, 10000000], got 10000001\n"},
      {{"--jobs=-1"}, "error: --jobs expects a non-negative integer, got "
                      "'-1'\n"},
      {{"--cutoff", "x"}, "error: --cutoff expects a non-negative integer"},
      {{"--threshold", "nan"}, "error: --threshold expects a number"},
      {{"--shard-cache"}, "error: --shard-cache requires --cache-dir\n"},
      {{"--solver-backend", "compiled"},
       "error: unknown option --solver-backend\n"},
  };
  for (const Case &C : Cases) {
    Parsed P(C.Args);
    EXPECT_FALSE(P.Ok) << C.Args.front();
    EXPECT_NE(P.Stderr.find(C.Says), std::string::npos)
        << C.Args.front() << ": " << P.Stderr;
  }
}

TEST(SharedFlagsTest, JobsAreClampedLoudly) {
  Parsed P({"--jobs", "1000000"});
  ASSERT_TRUE(P.Ok) << P.Stderr;
  unsigned Cap = 8 * ThreadPool::hardwareConcurrency();
  EXPECT_EQ(P.Run.Jobs, Cap);
  EXPECT_NE(P.Stderr.find("warning: --jobs 1000000 exceeds " +
                          std::to_string(Cap)),
            std::string::npos)
      << P.Stderr;
}

TEST(SharedFlagsTest, UsageListsEachSharedFlagOnce) {
  std::string Usage = SharedFlags::usage();
  for (const char *Flag :
       {"--seed FILE ", "--cache-dir DIR ", "--shard-cache ", "--iters N ",
        "--cutoff N ", "--jobs N ", "--threshold T ", "--strict ",
        "--metrics ", "--metrics-out F "}) {
    std::string Line = std::string("  ") + Flag;
    size_t At = Usage.find(Line);
    EXPECT_NE(At, std::string::npos) << Flag << "\n" << Usage;
    EXPECT_EQ(Usage.find(Line, At + 1), std::string::npos) << Flag;
  }
}

TEST(SharedFlagsTest, MetricsExitReportsTheWriteOrItsFailure) {
  fs::path Out = fs::temp_directory_path() /
                 ("seldon_shared_flags_" + std::to_string(::getpid()) +
                  ".json");
  {
    Parsed P({"--metrics-out", Out.string()});
    ASSERT_TRUE(P.Ok) << P.Stderr;
    ::testing::internal::CaptureStderr();
    EXPECT_TRUE(P.Flags.emitMetrics());
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "wrote metrics to " + Out.string() + "\n");
    EXPECT_TRUE(fs::exists(Out));
    fs::remove(Out);
  }
  {
    Parsed P({"--metrics-out", "/definitely/not/a/dir/m.json"});
    ASSERT_TRUE(P.Ok) << P.Stderr;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(P.Flags.emitMetrics());
    std::string Said = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(Said.find("error: cannot write metrics"), std::string::npos)
        << Said;
    EXPECT_EQ(Said.find("wrote metrics"), std::string::npos) << Said;
  }
}

} // namespace
