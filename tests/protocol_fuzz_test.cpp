//===- tests/protocol_fuzz_test.cpp - Seeded mutation fuzz of the protocol ===//
//
// Mutates valid seldond request lines (every op but shutdown) with the
// shared mutator (Mutator.h) and sends each mutant through
// Service::handle on a started one-file service. Whatever the bytes, the
// answer must be one line that parses as JSON: an ok envelope, or an
// error envelope whose code is in the protocol's table; a mutant that
// still parses as an object with a scalar id gets that id back; and the
// service must keep answering, so a status request sent after each mutant
// is answered ok.
//
// A mutant that would stop the service (shutdown), solve for more than a
// few iterations, or analyze a directory named by its "path" is skipped
// and counted: those ops are correct and only slow or out of scope here.
// scripts/check.sh runs this suite under ASan and UBSan, the short
// instantiation in its filter and the DISABLED_ long one with
// --gtest_also_run_disabled_tests: the request parser reads untrusted
// bytes off a socket.
//
//===----------------------------------------------------------------------===//

#include "Mutator.h"

#include "service/Json.h"
#include "service/Protocol.h"
#include "service/Service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <unistd.h>

namespace fs = std::filesystem;

using namespace seldon;
using namespace seldon::service;

namespace {

/// A learn or feedback mutant asking for more iterations than this is
/// skipped; the service's own default is below it.
constexpr double MaxIters = 4;

/// One valid request line of every op but shutdown.
const char *const Requests[] = {
    R"j({"v":1,"id":1,"op":"status"})j",
    R"j({"v":1,"id":"q2","op":"query","rep":"flask.escape()",)j"
    R"j("role":"sanitizer"})j",
    R"j({"v":1,"id":3,"op":"query","rep":"flask.make_response()",)j"
    R"j("role":"sink"})j",
    R"j({"v":1,"id":4,"op":"learn","iters":2,"warm":true})j",
    R"j({"v":1,"id":5,"op":"learn","iters":1,"reload":true})j",
    R"j({"v":1,"id":6,"op":"feedback","iters":2,"weight":1.5,"decay":0.5,)j"
    R"j("accept":[{"rep":"flask.escape()","role":"sanitizer"}],)j"
    R"j("reject":[{"rep":"request.args.get()","role":"sink"}]})j",
    R"j({"v":1,"id":7,"op":"taint","threshold":0.1,"dedup":true,)j"
    R"j("files":{"app.py":"from flask import request\nimport flask\n)j"
    R"j(flask.make_response(request.args.get('q'))\n"}})j",
};

/// True if \p Line would stop the service, solve for more than MaxIters
/// iterations, or analyze a directory: such a mutant is not sent.
bool skipped(const std::string &Line) {
  JsonValue Doc;
  std::string Error;
  if (!parseJson(Line, Doc, Error) || !Doc.isObject())
    return false;
  const JsonValue *Op = Doc.get("op");
  if (!Op || !Op->isString())
    return false;
  const std::string &Name = Op->stringValue();
  const JsonValue *Iters = Doc.get("iters");
  return Name == "shutdown" ||
         ((Name == "learn" || Name == "feedback") && Iters &&
          Iters->isNumber() && Iters->numberValue() > MaxIters) ||
         (Name == "taint" && Doc.get("path"));
}

/// The protocol's error codes, by wire name.
std::set<std::string> errorCodes() {
  std::set<std::string> Codes;
  for (int C = 0; C <= static_cast<int>(ErrorCode::ShuttingDown); ++C)
    Codes.insert(errorCodeName(static_cast<ErrorCode>(C)));
  return Codes;
}

/// Checks \p Response, the answer to \p Line, against every invariant.
void checkResponse(const std::string &Line, const std::string &Response) {
  static const std::set<std::string> Codes = errorCodes();
  EXPECT_EQ(Response.find('\n'), std::string::npos) << "not one line";
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Response, Doc, Error)) << Error << ": " << Response;
  ASSERT_TRUE(Doc.isObject()) << Response;
  const JsonValue *V = Doc.get("v");
  EXPECT_TRUE(V && V->isNumber() && V->numberValue() == ProtocolVersion)
      << Response;
  const JsonValue *Ok = Doc.get("ok");
  ASSERT_TRUE(Ok && Ok->isBool()) << Response;
  if (Ok->boolValue()) {
    EXPECT_NE(Doc.get("result"), nullptr) << Response;
  } else {
    const JsonValue *Err = Doc.get("error");
    ASSERT_TRUE(Err && Err->isObject()) << Response;
    const JsonValue *Code = Err->get("code");
    ASSERT_TRUE(Code && Code->isString()) << Response;
    EXPECT_TRUE(Codes.count(Code->stringValue())) << Response;
  }

  JsonValue Request;
  if (!parseJson(Line, Request, Error) || !Request.isObject())
    return;
  const JsonValue *Id = Request.get("id");
  if (Id && !Id->isArray() && !Id->isObject()) {
    const JsonValue *Echoed = Doc.get("id");
    ASSERT_NE(Echoed, nullptr) << Response;
    EXPECT_EQ(Echoed->render(), Id->render()) << Response;
  }
}

class ProtocolFuzzTest : public ::testing::TestWithParam<testutil::FuzzRun> {
protected:
  void SetUp() override {
    Root = fs::temp_directory_path() /
           ("seldon_protocol_fuzz_" + std::to_string(::getpid()));
    fs::create_directories(Root / "repo");
    std::ofstream Out(Root / "repo" / "app.py");
    Out << "from flask import request\n"
           "import flask\n"
           "\n"
           "def greet():\n"
           "    name = request.args.get('name')\n"
           "    flask.make_response('<h1>' + name + '</h1>')\n"
           "\n"
           "def safe():\n"
           "    name = request.args.get('name')\n"
           "    flask.make_response(flask.escape(name))\n";
  }

  void TearDown() override {
    std::error_code Ec;
    fs::remove_all(Root, Ec);
  }

  fs::path Root;
};

TEST_P(ProtocolFuzzTest, MutantsGetWellFormedAnswers) {
  const testutil::FuzzRun Run = GetParam();
  Service::Options Opts;
  Opts.CorpusDirs = {(Root / "repo").string()};
  Opts.Iterations = 2;
  Opts.RepCutoff = 1;
  Service Svc(std::move(Opts));
  std::string Error;
  ASSERT_TRUE(Svc.start(Error)) << Error;
  for (const char *Line : Requests)
    ASSERT_NE(Svc.handle(Line).find("\"ok\":true"), std::string::npos)
        << "the unmutated request fails: " << Line;

  Rng Random(Run.Seed);
  size_t Sent = 0, Skipped = 0;
  for (size_t I = 0; I < Run.Mutants; ++I) {
    std::string Line =
        testutil::mutate(Requests[I % std::size(Requests)], Random);
    if (skipped(Line)) {
      ++Skipped;
      continue;
    }
    ++Sent;
    checkResponse(Line, Svc.handle(Line));
    std::string Status = Svc.handle(R"j({"v":1,"id":"after","op":"status"})j");
    EXPECT_EQ(Status.rfind(R"j({"v":1,"id":"after","ok":true,)j", 0), 0u)
        << Status;
    if (HasFailure()) {
      ADD_FAILURE() << "mutant " << I << " failed; its line:\n" << Line;
      return;
    }
  }
  // Skips are rare; a harness that skips most mutants tests nothing.
  EXPECT_GT(Sent, 9 * Skipped) << Skipped << " of " << Run.Mutants
                                << " mutants skipped";
  RecordProperty("skipped", static_cast<int>(Skipped));
}

INSTANTIATE_TEST_SUITE_P(Budget, ProtocolFuzzTest,
                         ::testing::Values(testutil::FuzzRun{7, 300}));
INSTANTIATE_TEST_SUITE_P(DISABLED_Long, ProtocolFuzzTest,
                         ::testing::Values(testutil::FuzzRun{1001, 20000}));

} // namespace
