//===- tests/cli_test.cpp - Integration tests for the seldon CLI ----------===//
//
// Drives the built `seldon` binary end-to-end on throwaway directories:
// learn -> spec file -> analyze -> JSON, graph dumps, explain, and the
// error paths. The binary path is injected by CMake.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace fs = std::filesystem;

namespace {

#ifndef SELDON_CLI_PATH
#error "SELDON_CLI_PATH must be defined by the build"
#endif

struct CommandResult {
  int ExitCode = -1;
  std::string Output; // stdout + stderr combined.
};

CommandResult runCli(const std::string &Args) {
  std::string Command = std::string(SELDON_CLI_PATH) + " " + Args + " 2>&1";
  std::array<char, 4096> Buffer;
  CommandResult Result;
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return Result;
  size_t N;
  while ((N = fread(Buffer.data(), 1, Buffer.size(), Pipe)) > 0)
    Result.Output.append(Buffer.data(), N);
  int Status = pclose(Pipe);
  Result.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Result;
}

class CliTest : public ::testing::Test {
protected:
  void SetUp() override {
    Root = fs::temp_directory_path() /
           ("seldon_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::create_directories(Root / "repo");
    write("repo/app.py",
          "from flask import request\n"
          "import flask\n"
          "\n"
          "def greet():\n"
          "    name = request.args.get('name')\n"
          "    flask.make_response('<h1>' + name + '</h1>')\n"
          "\n"
          "def safe():\n"
          "    name = request.args.get('name')\n"
          "    flask.make_response(flask.escape(name))\n");
  }

  void TearDown() override {
    std::error_code Ec;
    fs::remove_all(Root, Ec);
  }

  void write(const std::string &Relative, const std::string &Content) {
    fs::path Path = Root / Relative;
    fs::create_directories(Path.parent_path());
    std::ofstream Out(Path);
    Out << Content;
  }

  std::string repo() const { return (Root / "repo").string(); }
  std::string path(const std::string &Relative) const {
    return (Root / Relative).string();
  }

  fs::path Root;
};

TEST_F(CliTest, AnalyzeFindsTheUnsanitizedFlow) {
  CommandResult R = runCli("analyze " + repo());
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("1 raw report(s)"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("flask.request.args.get()"), std::string::npos);
  EXPECT_NE(R.Output.find("flask.make_response()"), std::string::npos);
}

TEST_F(CliTest, AnalyzeJsonOutput) {
  CommandResult R = runCli("analyze --json " + repo());
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("{\"reports\": [{\"file\": \"app.py\""),
            std::string::npos)
      << R.Output;
}

TEST_F(CliTest, AnalyzeJsonIsTheSameAtAnyJobs) {
  // Several project dirs, so --jobs 4 builds their graphs in parallel; the
  // merge appends them in corpus order either way. Project I's flow sits I
  // lines lower, so its report shows where it landed in that order.
  std::string Dirs = repo();
  for (int I = 0; I < 5; ++I) {
    std::string Dir = "proj" + std::to_string(I);
    write(Dir + "/views.py", std::string(I, '\n') +
                                 "from flask import request\n"
                                 "import flask\n"
                                 "q = request.args.get('q')\n"
                                 "flask.make_response(q)\n");
    Dirs += " " + path(Dir);
  }
  std::string Bytes[2];
  for (int Jobs : {1, 4}) {
    std::string Out = path("jobs" + std::to_string(Jobs) + ".json");
    CommandResult R =
        runCli("analyze --json --no-dedup --jobs " + std::to_string(Jobs) +
               " --out " + Out + " " + Dirs);
    ASSERT_EQ(R.ExitCode, 0) << R.Output;
    std::ifstream In(Out);
    Bytes[Jobs == 4] = std::string(std::istreambuf_iterator<char>(In),
                                   std::istreambuf_iterator<char>());
  }
  size_t Reports = 0;
  for (size_t At = Bytes[0].find("\"source\": "); At != std::string::npos;
       At = Bytes[0].find("\"source\": ", At + 1))
    ++Reports;
  EXPECT_EQ(Reports, 6u) << Bytes[0];
  EXPECT_EQ(Bytes[1], Bytes[0]);
}

TEST_F(CliTest, LearnWritesSpecAndAnalyzeConsumesIt) {
  std::string Spec = path("learned.spec");
  CommandResult Learn =
      runCli("learn --cutoff 1 --iters 200 --out " + Spec + " " + repo());
  EXPECT_EQ(Learn.ExitCode, 0) << Learn.Output;
  std::ifstream In(Spec);
  ASSERT_TRUE(In.good());
  std::string Content((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(Content.find("sanitizer"), std::string::npos) << Content;

  CommandResult Analyze =
      runCli("analyze --spec " + Spec + " " + repo());
  EXPECT_EQ(Analyze.ExitCode, 0) << Analyze.Output;
}

TEST_F(CliTest, GraphTextAndDot) {
  CommandResult Text = runCli("graph " + path("repo/app.py"));
  EXPECT_EQ(Text.ExitCode, 0);
  EXPECT_NE(Text.Output.find("graph events="), std::string::npos);
  CommandResult Dot = runCli("graph --dot " + path("repo/app.py"));
  EXPECT_EQ(Dot.ExitCode, 0);
  EXPECT_NE(Dot.Output.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.Output.find("lightcoral"), std::string::npos)
      << "seeded sink must be coloured";
}

TEST_F(CliTest, ExplainSeededSanitizer) {
  CommandResult R = runCli("explain --rep 'flask.escape()' --role sanitizer "
                           "--cutoff 1 --iters 200 " +
                           repo());
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("pinned to 1 by the seed"), std::string::npos);
  EXPECT_NE(R.Output.find("constraint"), std::string::npos);
}

TEST_F(CliTest, SeedCommandPrintsAppB) {
  CommandResult R = runCli("seed");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("o: flask.request.form.get()"), std::string::npos);
  EXPECT_NE(R.Output.find("b: *tensorflow*"), std::string::npos);
}

TEST_F(CliTest, ErrorPaths) {
  EXPECT_NE(runCli("").ExitCode, 0);
  EXPECT_NE(runCli("frobnicate").ExitCode, 0);
  EXPECT_NE(runCli("analyze /definitely/not/a/dir").ExitCode, 0);
  EXPECT_NE(runCli("explain " + repo()).ExitCode, 0) << "--rep is required";
  EXPECT_NE(runCli("learn --seed /missing/seed.txt " + repo()).ExitCode, 0);
  EXPECT_EQ(runCli("--help").ExitCode, 0);
}

TEST_F(CliTest, DiffSpecs) {
  write("old.spec", "source 0.5 web.read()\n");
  write("new.spec", "source 0.5 web.read()\nsink 0.6 db.exec()\n");
  CommandResult Same =
      runCli("diff " + path("old.spec") + " " + path("old.spec"));
  EXPECT_EQ(Same.ExitCode, 0);
  CommandResult Changed =
      runCli("diff " + path("old.spec") + " " + path("new.spec"));
  EXPECT_EQ(Changed.ExitCode, 2) << "drift must exit non-zero for CI";
  EXPECT_NE(Changed.Output.find("+ sink db.exec()"), std::string::npos);
  EXPECT_NE(runCli("diff " + path("old.spec")).ExitCode, 0)
      << "two files required";
}

TEST_F(CliTest, StatsCommand) {
  CommandResult R = runCli("stats " + repo());
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("events:"), std::string::npos);
  EXPECT_NE(R.Output.find("longest flow chain:"), std::string::npos);
}

TEST_F(CliTest, JobsValidation) {
  // --jobs used to go through atoi(): -1 silently became huge/garbage.
  CommandResult Negative = runCli("learn --jobs=-1 " + repo());
  EXPECT_NE(Negative.ExitCode, 0);
  EXPECT_NE(Negative.Output.find("non-negative integer"), std::string::npos)
      << Negative.Output;

  CommandResult Junk = runCli("learn --jobs banana " + repo());
  EXPECT_NE(Junk.ExitCode, 0);
  EXPECT_NE(Junk.Output.find("non-negative integer"), std::string::npos);

  CommandResult TrailingJunk = runCli("learn --jobs 2x " + repo());
  EXPECT_NE(TrailingJunk.ExitCode, 0);

  CommandResult Missing = runCli("learn --jobs");
  EXPECT_NE(Missing.ExitCode, 0);

  // Absurd values are clamped with a warning, not honored.
  CommandResult Huge =
      runCli("learn --jobs 1000000 --iters 50 " + repo());
  EXPECT_EQ(Huge.ExitCode, 0) << Huge.Output;
  EXPECT_NE(Huge.Output.find("clamping"), std::string::npos) << Huge.Output;

  CommandResult Ok = runCli("learn --jobs=2 --iters 50 " + repo());
  EXPECT_EQ(Ok.ExitCode, 0) << Ok.Output;
}

TEST_F(CliTest, MetricsJsonOutput) {
  std::string Out = path("metrics.json");
  CommandResult R = runCli("learn --iters 100 --metrics-out " + Out + " " +
                           repo());
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("wrote metrics to"), std::string::npos) << R.Output;

  std::ifstream In(Out);
  ASSERT_TRUE(In.good());
  std::string Json((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Json.find("\"enabled\": true"), std::string::npos) << Json;
  for (const char *Key :
       {"\"session/build\"", "\"session/constraints\"",
        "\"session/assemble\"", "\"session/solve\"",
        "\"session/solve/compile\"", "\"session/solve/iterate\"",
        "\"session/solve/readback\"", "\"spans_dropped\": 0",
        "\"parse.files\"", "\"solve.iterations\"", "\"solver.rows_after\"",
        "\"solve.objective\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << "missing " << Key;
  EXPECT_EQ(Json.find("\"session/parse\""), std::string::npos)
      << "graph building is timed as session/build";
}

TEST_F(CliTest, SolverStatsDividesTheIterateSpan) {
  // At one iteration the compile dwarfs the loop, so dividing the whole
  // session/solve span would overstate the per-iteration cost many times.
  std::string Out = path("metrics.json");
  CommandResult R = runCli("learn --cutoff 1 --iters 1 --solver-stats "
                           "--metrics-out " + Out + " " + repo());
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  size_t Unit = R.Output.find(" ms/iteration over 1 iteration(s)");
  ASSERT_NE(Unit, std::string::npos) << R.Output;
  size_t Figure = R.Output.rfind("solver: ", Unit) + 8;
  double PrintedMs = std::strtod(R.Output.c_str() + Figure, nullptr);

  std::ifstream In(Out);
  std::string Json((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  size_t Span = Json.find("\"path\": \"session/solve/iterate\"");
  ASSERT_NE(Span, std::string::npos) << Json;
  const std::string Key = "\"duration_seconds\": ";
  size_t Duration = Json.find(Key, Span) + Key.size();
  double IterateSeconds = std::strtod(Json.c_str() + Duration, nullptr);
  // Equal to the printed precision (%.3f ms).
  EXPECT_NEAR(PrintedMs, 1000.0 * IterateSeconds, 0.0005 + 1e-9)
      << R.Output;
}

TEST_F(CliTest, RetiredSolverBackendsFailLoudly) {
  for (const char *Name : {"legacy", "simd", "simd-f32"}) {
    CommandResult R = runCli(std::string("learn --iters 20 --solver-backend ") +
                             Name + " " + repo());
    EXPECT_EQ(R.ExitCode, 1) << Name << ": " << R.Output;
    EXPECT_NE(R.Output.find("merged into compiled"), std::string::npos)
        << R.Output;
  }
  CommandResult Flag = runCli("learn --iters 20 --legacy-solver " + repo());
  EXPECT_NE(Flag.ExitCode, 0) << Flag.Output;
  CommandResult Ok =
      runCli("learn --iters 20 --solver-backend compiled " + repo());
  EXPECT_EQ(Ok.ExitCode, 0) << Ok.Output;
}

TEST_F(CliTest, MetricsTableOutput) {
  CommandResult R = runCli("analyze --metrics " + repo());
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("taint.analyses"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("parse.file_seconds"), std::string::npos)
      << R.Output;
}

TEST_F(CliTest, MetricsOutUnwritablePathFails) {
  CommandResult R = runCli(
      "analyze --metrics-out /definitely/not/a/dir/m.json " + repo());
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("cannot write metrics"), std::string::npos)
      << R.Output;
}

// /dev/full accepts the open and fails every write, so a command that
// reports success there never checked its output file.
TEST_F(CliTest, OutToAFullDeviceFails) {
  if (!fs::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this host";
  for (const std::string &Args :
       {"analyze --out /dev/full " + repo(),
        "graph --out /dev/full " + path("repo/app.py"),
        "learn --cutoff 1 --iters 50 --out /dev/full " + repo()}) {
    CommandResult R = runCli(Args);
    EXPECT_EQ(R.ExitCode, 1) << Args << "\n" << R.Output;
    EXPECT_NE(R.Output.find("cannot write"), std::string::npos)
        << Args << "\n" << R.Output;
    EXPECT_EQ(R.Output.find("wrote /dev/full"), std::string::npos)
        << Args << "\n" << R.Output;
  }
}

TEST_F(CliTest, MetricsOutToAFullDeviceFails) {
  if (!fs::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this host";
  CommandResult R = runCli("analyze --metrics-out /dev/full " + repo());
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("cannot write"), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find("wrote metrics"), std::string::npos) << R.Output;
}

TEST_F(CliTest, CustomSeedFile) {
  write("custom.seed", "o: flask.request.args.get()\n");
  // Without a sink in the seed there is nothing to report.
  CommandResult R =
      runCli("analyze --seed " + path("custom.seed") + " " + repo());
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("0 raw report(s)"), std::string::npos) << R.Output;
}

} // namespace
