//===- tests/propgraph_test.cpp - Tests for the propagation graph ---------===//

#include "propgraph/GraphBuilder.h"
#include "propgraph/GraphCodec.h"
#include "propgraph/RepTable.h"
#include "pysem/Project.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

struct GraphFixture {
  pysem::Project Proj;
  PropagationGraph Graph;

  explicit GraphFixture(std::string_view Source,
                        BuildOptions Opts = BuildOptions(),
                        std::string Path = "app.py") {
    const pysem::ModuleInfo &M = Proj.addModule(std::move(Path), Source);
    std::vector<pyast::ParseError> Errors;
    Graph = buildModuleGraph(Proj, M, Opts, &Errors);
    EXPECT_TRUE(Errors.empty())
        << "fixture source failed to parse: "
        << (Errors.empty() ? "" : Errors.front().Message);
  }

  /// Events whose primary representation equals \p Rep.
  std::vector<EventId> eventsByRep(const std::string &Rep) const {
    std::vector<EventId> Out;
    for (const Event &E : Graph.events())
      if (E.primaryRep() == Rep)
        Out.push_back(E.Id);
    return Out;
  }

  /// First event whose primary rep equals \p Rep; asserts existence.
  EventId theEvent(const std::string &Rep) const {
    std::vector<EventId> Found = eventsByRep(Rep);
    EXPECT_EQ(Found.size(), 1u) << "expected exactly one event for " << Rep;
    return Found.empty() ? InvalidEvent : Found.front();
  }

  bool hasEvent(const std::string &Rep) const {
    return !eventsByRep(Rep).empty();
  }

  bool hasEdge(EventId From, EventId To) const {
    const auto &S = Graph.successors(From);
    return std::find(S.begin(), S.end(), To) != S.end();
  }

  /// True if \p To is forward-reachable from \p From.
  bool flowsTo(EventId From, EventId To) const {
    auto R = Graph.reachableFrom(From);
    return std::find(R.begin(), R.end(), To) != R.end();
  }
};

/// An event's options as strings, and an adjacency list as ids, in
/// vectors gtest compares and prints.
std::vector<std::string> strings(const RepRange &Reps) {
  return {Reps.begin(), Reps.end()};
}
std::vector<EventId> ids(std::span<const EventId> List) {
  return {List.begin(), List.end()};
}

/// The breadth-first search the graph's searches must reproduce, visit
/// order included: a fresh bitmap per call, \p Start marked up front.
std::vector<EventId>
referenceSearch(const PropagationGraph &G, EventId Start, bool Forward) {
  std::vector<EventId> Out;
  std::vector<bool> Seen(G.numEvents(), false);
  std::vector<EventId> Queue{Start};
  Seen[Start] = true;
  for (size_t Head = 0; Head < Queue.size(); ++Head)
    for (EventId Next : Forward ? G.successors(Queue[Head])
                                : G.predecessors(Queue[Head])) {
      if (Seen[Next])
        continue;
      Seen[Next] = true;
      Out.push_back(Next);
      Queue.push_back(Next);
    }
  return Out;
}

/// \p E's backoff options under \p Keep, most to least specific, as
/// constraint generation filters them.
std::vector<RepId> keptOptions(const std::vector<uint8_t> &Keep,
                               const Event &E) {
  std::vector<RepId> Out;
  for (RepId Id : E.repIds())
    if (Keep[Id])
      Out.push_back(Id);
  return Out;
}

/// A representation table over a copy of \p Graph.
RepTable countedTable(const PropagationGraph &Graph) {
  return RepTable(std::make_shared<const PropagationGraph>(Graph));
}

//===----------------------------------------------------------------------===//
// Event creation and representations
//===----------------------------------------------------------------------===//

TEST(GraphBuilderTest, ImportRootedCall) {
  GraphFixture F("from werkzeug import secure_filename\n"
                 "x = secure_filename(name)\n");
  EventId E = F.theEvent("werkzeug.secure_filename()");
  EXPECT_EQ(F.Graph.event(E).Kind, EventKind::Call);
  EXPECT_EQ(F.Graph.event(E).Candidates, AllRolesMask);
}

TEST(GraphBuilderTest, DottedModuleCallDoesNotCreatePrefixEvents) {
  GraphFixture F("import os\n"
                 "p = os.path.join(a, b)\n");
  EXPECT_TRUE(F.hasEvent("os.path.join()"));
  EXPECT_FALSE(F.hasEvent("os.path"));
  EXPECT_FALSE(F.hasEvent("os"));
}

TEST(GraphBuilderTest, SubscriptAndAttributeReads) {
  GraphFixture F("from flask import request\n"
                 "filename = request.files['f'].filename\n");
  EventId Sub = F.theEvent("flask.request.files['f']");
  EventId Attr = F.theEvent("flask.request.files['f'].filename");
  EXPECT_EQ(F.Graph.event(Sub).Kind, EventKind::ObjectRead);
  EXPECT_EQ(F.Graph.event(Attr).Kind, EventKind::ObjectRead);
  EXPECT_EQ(F.Graph.event(Attr).Candidates, SourceMask)
      << "object reads can only be sources (§5.1)";
  EXPECT_TRUE(F.hasEdge(Sub, Attr));
}

TEST(GraphBuilderTest, SubscriptKeysAreEscaped) {
  // The key's newline, tab, carriage return, backslash and NUL, a raw
  // control byte and DEL are spelled as escapes, so the representation is
  // one printable line; every other byte (quotes included) is kept.
  GraphFixture F("import mylib\n"
                 "x = mylib.data['a\\nb\\\\c\\0d\\te\\rf\x01g\x7fh\"i']\n"
                 "y = mylib.data[\"plain key\"]\n");
  EXPECT_TRUE(F.hasEvent(
      R"(mylib.data['a\nb\\c\x00d\te\rf\x01g\x7fh"i'])"));
  EXPECT_TRUE(F.hasEvent("mylib.data['plain key']"));
  for (const Event &E : F.Graph.events())
    for (const std::string &Rep : E.Reps)
      for (char C : Rep)
        EXPECT_TRUE(static_cast<unsigned char>(C) >= 0x20 && C != 0x7f)
            << "control byte in " << Rep;
}

TEST(GraphBuilderTest, ParamEventRepsWithClassBackoff) {
  GraphFixture F("from base_driver import ThreadDriver\n"
                 "class ESCPOSDriver(ThreadDriver):\n"
                 "    def status(self, eprint):\n"
                 "        self.receipt('<div>' + msg + '</div>')\n");
  // The paper's §3.2 example: the call has four backoff options.
  std::vector<EventId> Calls;
  for (const Event &E : F.Graph.events())
    if (E.Kind == EventKind::Call && E.primaryRep().find("receipt") !=
                                         std::string::npos)
      Calls.push_back(E.Id);
  ASSERT_EQ(Calls.size(), 1u);
  const Event &Call = F.Graph.event(Calls[0]);
  std::vector<std::string> Expected{
      "ESCPOSDriver::status(param self).receipt()",
      "base_driver.ThreadDriver::status(param self).receipt()",
      "status(param self).receipt()",
      "self.receipt()",
  };
  EXPECT_EQ(strings(Call.Reps), Expected);

  // Parameter events exist for `self` and `eprint` and exclude the bare
  // variable name from their representation options.
  bool FoundEprint = false;
  for (const Event &E : F.Graph.events()) {
    if (E.Kind != EventKind::FormalParam)
      continue;
    if (E.primaryRep() == "ESCPOSDriver::status(param eprint)") {
      FoundEprint = true;
      EXPECT_EQ(E.Candidates, SourceMask);
      for (const std::string &R : E.Reps)
        EXPECT_NE(R, "eprint");
    }
  }
  EXPECT_TRUE(FoundEprint);
}

TEST(GraphBuilderTest, PlainFunctionParamReps) {
  GraphFixture F("def media(f):\n"
                 "    f.save(path)\n");
  EXPECT_TRUE(F.hasEvent("media(param f)"));
  // The method call backs off from `media(param f).save()` to `f.save()`.
  std::vector<EventId> Calls;
  for (const Event &E : F.Graph.events())
    if (E.Kind == EventKind::Call)
      Calls.push_back(E.Id);
  ASSERT_EQ(Calls.size(), 1u);
  std::vector<std::string> Expected{"media(param f).save()", "f.save()"};
  EXPECT_EQ(strings(F.Graph.event(Calls[0]).Reps), Expected);
}

TEST(GraphBuilderTest, ImportAsResolvesInReps) {
  GraphFixture F("import numpy as np\n"
                 "x = np.array(data)\n");
  EXPECT_TRUE(F.hasEvent("numpy.array()"));
}

TEST(GraphBuilderTest, CallResultChains) {
  GraphFixture F("import sqlite3\n"
                 "sqlite3.connect(p).cursor().execute(q)\n");
  EXPECT_TRUE(F.hasEvent("sqlite3.connect()"));
  EXPECT_TRUE(F.hasEvent("sqlite3.connect().cursor()"));
  EXPECT_TRUE(F.hasEvent("sqlite3.connect().cursor().execute()"));
  EXPECT_TRUE(F.flowsTo(F.theEvent("sqlite3.connect()"),
                        F.theEvent("sqlite3.connect().cursor().execute()")));
}

TEST(GraphBuilderTest, UnknownBaseRendersUnknown) {
  GraphFixture F("y = (a + b).format(c)\n");
  EXPECT_TRUE(F.hasEvent("<unknown>.format()"));
}

//===----------------------------------------------------------------------===//
// Flow edges
//===----------------------------------------------------------------------===//

TEST(GraphBuilderTest, ArgumentsFlowIntoCalls) {
  GraphFixture F("from flask import request\n"
                 "import db\n"
                 "q = request.args.get('q')\n"
                 "db.run(q)\n");
  EventId Src = F.theEvent("flask.request.args.get()");
  EventId Sink = F.theEvent("db.run()");
  EXPECT_TRUE(F.hasEdge(Src, Sink));
}

TEST(GraphBuilderTest, KeywordArgumentsFlow) {
  GraphFixture F("import db\n"
                 "import web\n"
                 "v = web.read()\n"
                 "db.run(query=v)\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("web.read()"), F.theEvent("db.run()")));
}

TEST(GraphBuilderTest, ReceiverFlowsIntoMethodCall) {
  GraphFixture F("from flask import request\n"
                 "request.files['f'].save(p)\n");
  EventId Sub = F.theEvent("flask.request.files['f']");
  EventId Save = F.theEvent("flask.request.files['f'].save()");
  EXPECT_TRUE(F.hasEdge(Sub, Save));
}

TEST(GraphBuilderTest, BinaryOperatorsPropagate) {
  GraphFixture F("import web\nimport db\n"
                 "x = web.read()\n"
                 "db.run('q' + x)\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("web.read()"), F.theEvent("db.run()")));
}

TEST(GraphBuilderTest, NonAsciiNamesAndCrlfLineJoinsKeepTheirFlow) {
  // A non-ASCII identifier ("café") is one name, so the flow through it
  // survives.
  GraphFixture Name("import os\n"
                    "caf\xc3\xa9 = os.environ.get('A'); os.system(caf\xc3\xa9)\n");
  EXPECT_TRUE(Name.hasEdge(Name.theEvent("os.environ.get()"),
                           Name.theEvent("os.system()")));
  // In a CRLF file a backslash ending a line joins it with the next.
  GraphFixture Crlf("import os\r\n"
                    "x = os.environ.get('A') + \\\r\n"
                    "    'suffix'\r\n"
                    "os.system(x)\r\n");
  EXPECT_TRUE(Crlf.hasEdge(Crlf.theEvent("os.environ.get()"),
                           Crlf.theEvent("os.system()")));
  // So does one ending a line inside a string literal.
  GraphFixture InString("import os\r\n"
                        "x = 'abc\\\r\n"
                        "def' + os.environ.get('A')\r\n"
                        "os.system(x)\r\n");
  EXPECT_TRUE(InString.hasEdge(InString.theEvent("os.environ.get()"),
                               InString.theEvent("os.system()")));
}

TEST(GraphBuilderTest, RawStringWithEscapedQuoteKeepsNextLinesFlow) {
  // The raw string ends at its closing quote, not at the escaped one, so
  // the next line lexes on its own and keeps its edge.
  GraphFixture F("import os\nimport re\n"
                 "x = re.compile(r'\\'')\n"
                 "os.system(os.environ.get('A'))\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("os.environ.get()"),
                        F.theEvent("os.system()")));
}

TEST(GraphBuilderTest, StringFormattingPropagates) {
  GraphFixture F("import web\nimport db\n"
                 "db.run('SELECT %s' % web.read())\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("web.read()"), F.theEvent("db.run()")));
}

TEST(GraphBuilderTest, CollectionsPropagate) {
  GraphFixture F("import web\nimport db\n"
                 "row = [1, web.read(), 'x']\n"
                 "db.run(row)\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("web.read()"), F.theEvent("db.run()")));
}

TEST(GraphBuilderTest, DictValuesPropagate) {
  GraphFixture F("import web\nimport db\n"
                 "d = {'k': web.read()}\n"
                 "db.run(d)\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("web.read()"), F.theEvent("db.run()")));
}

TEST(GraphBuilderTest, BranchesMergeFlows) {
  GraphFixture F("import a\nimport b\nimport db\n"
                 "if cond:\n    x = a.read()\nelse:\n    x = b.read()\n"
                 "db.run(x)\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("a.read()"), F.theEvent("db.run()")));
  EXPECT_TRUE(F.hasEdge(F.theEvent("b.read()"), F.theEvent("db.run()")));
}

TEST(GraphBuilderTest, ForLoopTargetReceivesIterFlow) {
  GraphFixture F("import web\nimport db\n"
                 "for row in web.rows():\n"
                 "    db.run(row)\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("web.rows()"), F.theEvent("db.run()")));
}

TEST(GraphBuilderTest, ConditionalExprPropagatesBothArms) {
  GraphFixture F("import a\nimport b\nimport db\n"
                 "db.run(a.x() if c else b.y())\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("a.x()"), F.theEvent("db.run()")));
  EXPECT_TRUE(F.hasEdge(F.theEvent("b.y()"), F.theEvent("db.run()")));
}

TEST(GraphBuilderTest, ComprehensionPropagates) {
  GraphFixture F("import web\nimport db\n"
                 "rows = [r.strip() for r in web.rows()]\n"
                 "db.run(rows)\n");
  EXPECT_TRUE(F.flowsTo(F.theEvent("web.rows()"), F.theEvent("db.run()")));
}

TEST(GraphBuilderTest, ComprehensionClausesKeepTheirFlow) {
  // A second `for` clause and a second `if` clause each keep the flow.
  GraphFixture Nested("import web\nimport db\n"
                      "grid = web.read()\n"
                      "db.run([x for row in grid for x in row])\n");
  EXPECT_TRUE(Nested.hasEdge(Nested.theEvent("web.read()"),
                             Nested.theEvent("db.run()")));
  GraphFixture Joined("import web\nimport db\n"
                      "grid = web.read()\n"
                      "db.run([x for x in grid if x if x])\n");
  EXPECT_TRUE(Joined.hasEdge(Joined.theEvent("web.read()"),
                             Joined.theEvent("db.run()")));
}

TEST(GraphBuilderTest, AsyncHandlerBuildsThePlainFormsGraph) {
  // The plain module leaves blank the columns `async ` and `await ` take,
  // so every event sits where it sits in the async one: the two graphs
  // encode to the same bytes.
  GraphFixture Async("import web\nimport db\n"
                     "@app.get('/items')\n"
                     "async def handler(req):\n"
                     "    data = await web.read()\n"
                     "    db.run(data)\n"
                     "    async with db.tx() as t:\n"
                     "        t.send(data)\n"
                     "    async for row in db.rows(data):\n"
                     "        db.log([x async for x in row])\n");
  GraphFixture Plain("import web\nimport db\n"
                     "@app.get('/items')\n"
                     "def       handler(req):\n"
                     "    data =       web.read()\n"
                     "    db.run(data)\n"
                     "    with       db.tx() as t:\n"
                     "        t.send(data)\n"
                     "    for       row in db.rows(data):\n"
                     "        db.log([x       for x in row])\n");
  EXPECT_EQ(encodeGraph(Async.Graph), encodeGraph(Plain.Graph));
  EXPECT_TRUE(Async.hasEdge(Async.theEvent("web.read()"),
                            Async.theEvent("db.run()")));
  EXPECT_TRUE(Async.flowsTo(Async.theEvent("web.read()"),
                            Async.theEvent("db.log()")));
}

TEST(GraphBuilderTest, LocalsModeled) {
  GraphFixture F("import web\n"
                 "def view():\n"
                 "    secret = web.read()\n"
                 "    ctx = locals()\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("web.read()"), F.theEvent("locals()")));
}

TEST(GraphBuilderTest, LocalsModelingCanBeDisabled) {
  BuildOptions Opts;
  Opts.ModelLocals = false;
  GraphFixture F("import web\n"
                 "def view():\n"
                 "    secret = web.read()\n"
                 "    ctx = locals()\n",
                 Opts);
  EXPECT_FALSE(F.hasEdge(F.theEvent("web.read()"), F.theEvent("locals()")));
}

//===----------------------------------------------------------------------===//
// Same-module inlining
//===----------------------------------------------------------------------===//

TEST(GraphBuilderTest, LocalFunctionInlining) {
  GraphFixture F("import web\nimport scrublib\n"
                 "def clean(x):\n"
                 "    return scrublib.scrub(x)\n"
                 "y = clean(web.read())\n");
  EventId Src = F.theEvent("web.read()");
  EventId Param = F.theEvent("clean(param x)");
  EventId Scrub = F.theEvent("scrublib.scrub()");
  EventId CallClean = F.theEvent("app.clean()");
  EXPECT_TRUE(F.hasEdge(Src, Param)) << "argument must reach the parameter";
  EXPECT_TRUE(F.hasEdge(Param, Scrub)) << "parameter flows into the body";
  EXPECT_TRUE(F.hasEdge(Scrub, CallClean)) << "return flows back to the call";
  EXPECT_TRUE(F.flowsTo(Src, CallClean));
}

TEST(GraphBuilderTest, InliningWorksWhenCalledBeforeDefinition) {
  GraphFixture F("import web\n"
                 "y = helper(web.read())\n"
                 "def helper(v):\n"
                 "    return v\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("web.read()"),
                        F.theEvent("helper(param v)")));
}

TEST(GraphBuilderTest, MethodInliningThroughSelf) {
  GraphFixture F("import db\n"
                 "class Repo:\n"
                 "    def save(self, item):\n"
                 "        db.insert(item)\n"
                 "    def add(self, x):\n"
                 "        self.save(x)\n");
  EventId AddParam = F.theEvent("Repo::add(param x)");
  EventId SaveParam = F.theEvent("Repo::save(param item)");
  EventId Insert = F.theEvent("db.insert()");
  EXPECT_TRUE(F.hasEdge(AddParam, SaveParam));
  EXPECT_TRUE(F.flowsTo(AddParam, Insert));
}

TEST(GraphBuilderTest, ConstructorFlowsIntoInit) {
  GraphFixture F("import web\n"
                 "class Box:\n"
                 "    def __init__(self, v):\n"
                 "        self.v = v\n"
                 "b = Box(web.read())\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("web.read()"),
                        F.theEvent("Box::__init__(param v)")));
}

TEST(GraphBuilderTest, MethodCallOnLocalInstance) {
  GraphFixture F("import db\n"
                 "class Repo:\n"
                 "    def save(self, item):\n"
                 "        db.insert(item)\n"
                 "r = Repo()\n"
                 "r.save(payload)\n");
  EXPECT_TRUE(F.hasEvent("Repo::save(param item)"));
  EventId SaveParam = F.theEvent("Repo::save(param item)");
  EXPECT_TRUE(F.flowsTo(SaveParam, F.theEvent("db.insert()")));
}

TEST(GraphBuilderTest, RecursionTerminates) {
  GraphFixture F("def f(x):\n    return g(x)\n"
                 "def g(y):\n    return f(y)\n"
                 "f(1)\n");
  EXPECT_GT(F.Graph.numEvents(), 0u);
}

TEST(GraphBuilderTest, DecoratorObservesReturn) {
  GraphFixture F("from flask import app\nimport web\n"
                 "@app.route('/x')\n"
                 "def view():\n"
                 "    return web.page()\n");
  EXPECT_TRUE(F.hasEdge(F.theEvent("web.page()"),
                        F.theEvent("flask.app.route()")));
}

//===----------------------------------------------------------------------===//
// Points-to driven field flow
//===----------------------------------------------------------------------===//

TEST(GraphBuilderTest, FieldStoreReachesAliasedLoad) {
  GraphFixture F("import web\nimport db\n"
                 "obj = box()\n"
                 "p = obj\n"
                 "p.field = web.read()\n"
                 "db.run(obj.field)\n");
  EventId Src = F.theEvent("web.read()");
  EventId Sink = F.theEvent("db.run()");
  EXPECT_TRUE(F.flowsTo(Src, Sink));
}

TEST(GraphBuilderTest, FieldFlowRequiresPointsTo) {
  BuildOptions Opts;
  Opts.UsePointsTo = false;
  GraphFixture F("import web\nimport db\n"
                 "obj = box()\n"
                 "p = obj\n"
                 "p.field = web.read()\n"
                 "db.run(obj.field)\n",
                 Opts);
  EXPECT_FALSE(F.flowsTo(F.theEvent("web.read()"), F.theEvent("db.run()")));
}

// Each case below builds an alias with one construct, stores a source
// through one name and loads it through the other; the negative side is
// another object, another field, or another scope.

TEST(GraphBuilderTest, FieldFlowThroughDirectAlias) {
  GraphFixture F("import web\nimport db\n"
                 "a = make()\n"
                 "b = a\n"
                 "c = other()\n"
                 "b.f = web.read()\n"
                 "db.run(a.f)\n"
                 "db.log(c.f)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, FieldFlowKeepsFieldsApart) {
  GraphFixture F("import web\nimport db\n"
                 "obj = make()\n"
                 "p = obj\n"
                 "p.f = web.read()\n"
                 "db.run(obj.f)\n"
                 "db.log(obj.g)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, FieldFlowThroughContainerElement) {
  GraphFixture F("import web\nimport db\n"
                 "obj = make()\n"
                 "l = [obj]\n"
                 "p = l[0]\n"
                 "w = other()\n"
                 "p.f = web.read()\n"
                 "db.run(obj.f)\n"
                 "db.log(w.f)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, FieldFlowThroughSubscriptStore) {
  // The element field is key-insensitive: any read may see any write.
  GraphFixture F("import web\nimport db\n"
                 "obj = make()\n"
                 "d = {}\n"
                 "d['k'] = obj\n"
                 "p = d['other']\n"
                 "w = other()\n"
                 "p.f = web.read()\n"
                 "db.run(obj.f)\n"
                 "db.log(w.f)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, FieldFlowThroughBranchMerge) {
  GraphFixture F("import web\nimport db\n"
                 "a = a_make()\n"
                 "b = b_make()\n"
                 "w = other()\n"
                 "if cond():\n    p = a\nelse:\n    p = b\n"
                 "p.f = web.read()\n"
                 "db.run(a.f)\n"
                 "db.put(b.f)\n"
                 "db.log(w.f)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.put()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, FieldFlowThroughLoopCarriedVariable) {
  // The loop body runs once (§5.2), so the loop-carried variable ends up
  // at wrap()'s result — and the analysis terminates.
  GraphFixture F("import web\nimport db\n"
                 "acc = make()\n"
                 "for i in items():\n"
                 "    acc = wrap(acc)\n"
                 "out = acc\n"
                 "w = other()\n"
                 "out.f = web.read()\n"
                 "db.run(acc.f)\n"
                 "db.log(w.f)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, FieldFlowKeepsFunctionScopesApart) {
  GraphFixture F("import web\nimport db\n"
                 "x = make()\n"
                 "def f(x):\n"
                 "    y = x\n"
                 "    y.f = web.read()\n"
                 "    db.run(x.f)\n"
                 "db.log(x.f)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, FieldFlowThroughTupleUnpacking) {
  GraphFixture F("import web\nimport db\n"
                 "a, b = pair()\n"
                 "p = a\n"
                 "w = other()\n"
                 "p.f = web.read()\n"
                 "db.run(a.f)\n"
                 "db.log(w.f)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, FieldFlowThroughBoolOp) {
  GraphFixture F("import web\nimport db\n"
                 "l = maybe()\n"
                 "r = fallback()\n"
                 "w = other()\n"
                 "p = l or r\n"
                 "p.f = web.read()\n"
                 "db.run(l.f)\n"
                 "db.put(r.f)\n"
                 "db.log(w.f)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.put()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, FieldFlowThroughConditionalExpr) {
  GraphFixture F("import web\nimport db\n"
                 "l = maybe()\n"
                 "r = fallback()\n"
                 "o = other()\n"
                 "p = l if web.flag() else r\n"
                 "p.f = web.read()\n"
                 "db.run(l.f)\n"
                 "db.put(r.f)\n"
                 "db.log(o.f)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.put()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, FieldFlowThroughWithBinding) {
  GraphFixture F("import web\nimport db\n"
                 "w = other()\n"
                 "with open_thing() as h:\n"
                 "    p = h\n"
                 "    p.f = web.read()\n"
                 "    db.run(h.f)\n"
                 "db.log(w.f)\n");
  EventId Src = F.theEvent("web.read()");
  EXPECT_TRUE(F.flowsTo(Src, F.theEvent("db.run()")));
  EXPECT_FALSE(F.flowsTo(Src, F.theEvent("db.log()")));
}

TEST(GraphBuilderTest, SelfFieldFlowAcrossMethods) {
  GraphFixture F("import web\nimport db\n"
                 "class Handler:\n"
                 "    def read(self):\n"
                 "        self.data = web.read()\n"
                 "    def write(self):\n"
                 "        db.run(self.data)\n");
  EXPECT_TRUE(F.flowsTo(F.theEvent("web.read()"), F.theEvent("db.run()")));
}

//===----------------------------------------------------------------------===//
// The construct matrix: one flow rule per node kind
//===----------------------------------------------------------------------===//

// Every statement and expression kind the builder walks has a row that
// carries `web.read()` into `db.run(...)` and a row that does not, first
// as direct flow and then as field flow through an alias: the source is
// stored through one name and loaded through another. A row states
// today's rule, so a rule change flips exactly the rows it touches.

struct ConstructCase {
  const char *Name;   ///< The test's name suffix.
  const char *Source; ///< Runs after `import web` and `import db`.
  bool Flows;         ///< Whether some web.read() reaches some db.run().
  bool ModelLocals = true;
};

std::ostream &operator<<(std::ostream &OS, const ConstructCase &C) {
  return OS << C.Name;
}

const ConstructCase ConstructCases[] = {
    // Expressions, direct flow.
    {"Name", "x = web.read()\ndb.run(x)\n", true},
    {"NameRebound", "x = web.read()\ny = x\ny = 1\ndb.run(y)\n", false},
    {"LiteralsBesideFlow", "db.run(web.read(), 1, 'a', True, None)\n", true},
    {"LiteralsCarryNothing",
     "x = web.read()\nx = 1\ny = 'a'\nz = None\ndb.run(x, y, z, False)\n",
     false},
    {"AttributeOfSource", "x = web.read()\ndb.run(x.attr)\n", true},
    {"AttributeOfOther", "x = web.read()\ndb.run(other().attr)\n", false},
    {"SubscriptOfSource", "db.run(web.read()['k'])\n", true},
    {"SubscriptIndexCarriesNothing", "x = web.read()\ndb.run(d[x])\n",
     false},
    {"SliceOfSource", "db.run(web.read()[1:2])\n", true},
    {"SliceBoundsCarryNothing", "x = web.read()\ndb.run(d[x:2:x])\n",
     false},
    {"CallArgument", "db.run(web.read())\n", true},
    {"CallOfOther", "x = web.read()\ndb.run(other())\n", false},
    {"Binary", "db.run('a' + web.read())\n", true},
    {"BinaryOfConstants", "x = web.read()\ndb.run('a' % 'b')\n", false},
    {"Unary", "db.run(-web.read())\n", true},
    {"UnaryOfConstant", "x = web.read()\ndb.run(not 1)\n", false},
    {"BoolOp", "db.run(web.read() or 'x')\n", true},
    {"BoolOpOfOthers", "x = web.read()\ndb.run(a and b)\n", false},
    {"CompareBesideFlow", "x = web.read()\nok = x == 1\ndb.run(x)\n", true},
    {"CompareCarriesNothing", "db.run(web.read() == 'x')\n", false},
    {"List", "db.run([1, web.read()])\n", true},
    {"ListOfConstants", "x = web.read()\ndb.run([1, 2])\n", false},
    {"Tuple", "db.run((web.read(), 1))\n", true},
    {"TupleOfConstants", "x = web.read()\ndb.run((1, 2))\n", false},
    {"Set", "db.run({web.read()})\n", true},
    {"SetOfConstants", "x = web.read()\ndb.run({1})\n", false},
    {"DictValue", "db.run({'k': web.read()})\n", true},
    {"DictKey", "db.run({web.read(): 1})\n", true},
    {"DictOfConstants", "x = web.read()\ndb.run({'k': 1})\n", false},
    {"LambdaArgument", "f = lambda y: y\ndb.run(f(web.read()))\n", true},
    {"LambdaBodyIsOpaque", "x = web.read()\nf = lambda: x\ndb.run(f())\n",
     false},
    {"ConditionalArm", "db.run(web.read() if c else 'x')\n", true},
    {"ConditionalTestCarriesNothing",
     "x = web.read()\ndb.run(1 if x else 2)\n", false},
    {"Starred", "db.run(*web.read())\n", true},
    {"StarredOfOther", "x = web.read()\ndb.run(*other())\n", false},
    {"ComprehensionIter", "db.run([y for y in web.read()])\n", true},
    {"ComprehensionFilterCarriesNothing",
     "x = web.read()\ndb.run([1 for y in other() if x])\n", false},
    {"JoinedStr", "db.run(f'q={web.read()}')\n", true},
    {"JoinedStrOfConstants", "x = web.read()\ndb.run(f'plain')\n", false},
    {"YieldIsAResult",
     "def gen():\n    yield web.read()\ndb.run(gen())\n", true},
    {"YieldExprCarriesNothing",
     "def gen():\n    x = yield web.read()\n    db.run(x)\n", false},

    // Statements, direct flow.
    {"ExprStmt", "db.run(web.read())\n", true},
    {"ExprStmtBindsNothing", "x = 1\nweb.read()\ndb.run(x)\n", false},
    {"Assign", "x = y = web.read()\ndb.run(y)\n", true},
    {"AssignKills", "x = web.read()\nx = 1\ndb.run(x)\n", false},
    {"AugAssign", "x = 'a'\nx += web.read()\ndb.run(x)\n", true},
    {"AugAssignOfOthers", "x = web.read()\ny = 'a'\ny += 'b'\ndb.run(y)\n",
     false},
    {"AnnAssign", "x: str = web.read()\ndb.run(x)\n", true},
    {"AnnAssignKills", "x = web.read()\nx: str = 'a'\ndb.run(x)\n", false},
    {"AnnAssignWithoutValueKeeps", "x = web.read()\nx: str\ndb.run(x)\n",
     true},
    {"FunctionDefParam", "def f(a):\n    db.run(a)\nf(web.read())\n", true},
    {"FunctionDefUnusedParam",
     "def f(a):\n    db.run('const')\nf(web.read())\n", false},
    {"ClassDefBody", "class C:\n    x = web.read()\n    db.run(x)\n", true},
    {"ClassDefBodyIsScratch", "class C:\n    x = web.read()\ndb.run(x)\n",
     false},
    {"Return", "def f():\n    return web.read()\ndb.run(f())\n", true},
    {"ReturnOfConstant",
     "def f():\n    x = web.read()\n    return 1\ndb.run(f())\n", false},
    {"IfMergesArms", "if c:\n    x = web.read()\nelse:\n    x = 1\ndb.run(x)\n",
     true},
    {"IfBothArmsKill",
     "x = web.read()\nif c:\n    x = 1\nelse:\n    x = 2\ndb.run(x)\n", false},
    {"While", "while c:\n    x = web.read()\ndb.run(x)\n", true},
    {"WhileBodyRunsOnce", "x = web.read()\nwhile c:\n    x = 1\ndb.run(x)\n",
     false},
    {"ForTarget", "for x in web.read():\n    db.run(x)\n", true},
    {"ForTargetOfOther",
     "for x in other():\n    y = web.read()\ndb.run(x)\n", false},
    {"Import", "import web as w\ndb.run(w.read())\n", true},
    {"ImportBindsNoData", "x = web.read()\nimport db as x\ndb.run(x)\n",
     true},
    {"ImportFrom", "from web import read\ndb.run(read())\n", true},
    {"ImportFromOfOther",
     "from web import read\nx = read()\nfrom db import run\nrun(1)\n", false},
    {"Pass", "x = web.read()\npass\ndb.run(x)\n", true},
    {"PassKillsNothing", "pass\ndb.run(1)\nweb.read()\n", false},
    {"BreakIsIgnored",
     "for i in items():\n    break\n    x = web.read()\ndb.run(x)\n", true},
    {"BreakDoesNotSkipAKill",
     "x = web.read()\nfor i in items():\n    break\n    x = 1\ndb.run(x)\n",
     false},
    {"ContinueIsIgnored",
     "for i in items():\n    continue\n    x = web.read()\ndb.run(x)\n", true},
    {"ContinueDoesNotSkipAKill",
     "x = web.read()\nfor i in items():\n    continue\n    x = 1\ndb.run(x)\n",
     false},
    {"WithBinding", "with web.read() as f:\n    db.run(f)\n", true},
    {"WithBindingOfOther",
     "with other() as f:\n    x = web.read()\ndb.run(f)\n", false},
    {"Try", "try:\n    x = web.read()\nexcept E:\n    pass\ndb.run(x)\n",
     true},
    {"TryBodyKills",
     "x = web.read()\ntry:\n    x = 1\nexcept E:\n    pass\ndb.run(x)\n",
     false},
    {"RaiseBesideFlow", "x = web.read()\nif c:\n    raise E(x)\ndb.run(x)\n",
     true},
    {"RaiseCarriesNothing", "x = web.read()\nraise db.run(1) from x\n", false},
    {"GlobalWritesThrough",
     "x = 1\ndef f():\n    global x\n    x = web.read()\nf()\ndb.run(x)\n",
     true},
    {"WithoutGlobalStaysLocal",
     "x = 1\ndef f():\n    x = web.read()\nf()\ndb.run(x)\n", false},
    {"GlobalSeenByLaterFunctions",
     "def f():\n    global x\n    x = web.read()\nf()\n"
     "def g():\n    db.run(x)\n",
     true},
    // A module-level `if` replaces the module's environment with the merge
    // of its arms, so a `global` write made by a call inside an arm is
    // dropped; a function processed later sees it.
    {"GlobalWrittenInABranchIsMergedAway",
     "x = 1\ndef f():\n    global x\n    x = web.read()\nif c:\n    f()\n"
     "db.run(x)\n",
     false},
    {"GlobalCreatedInABranchIsMergedAway",
     "def f():\n    global y\n    y = web.read()\nif c:\n    f()\nelse:\n"
     "    y = 2\ndb.run(y)\n",
     false},
    {"GlobalWrittenBeforeAFunctionRuns",
     "def f():\n    global y\n    y = web.read()\ndef g():\n    if c:\n"
     "        f()\n    db.run(y)\n",
     true},
    {"DeleteOther", "x = web.read()\ny = 1\ndel y\ndb.run(x)\n", true},
    {"DeleteUnbinds", "x = web.read()\ndel x\ndb.run(x)\n", false},
    {"AssertBesideFlow", "x = web.read()\nassert x\ndb.run(x)\n", true},
    {"AssertCarriesNothing", "assert db.run(1), web.read()\n", false},

    // Calls the builder models beyond plain argument flow.
    {"Locals", "x = web.read()\ndb.run(locals())\n", true},
    {"LocalsSeesFunctionSnapshot",
     "def f():\n    db.run(locals())\nf()\nx = web.read()\n", false},
    {"LocalsModelingOff", "x = web.read()\ndb.run(locals())\n", false,
     /*ModelLocals=*/false},
    {"DecoratorObservesReturn",
     "@db.run('/x')\ndef handler():\n    return web.read()\n", true},
    {"DecoratorOfConstantReturn",
     "@db.run('/x')\ndef handler():\n    web.read()\n    return 1\n", false},
    {"InliningThroughSelf",
     "class C:\n    def get(self):\n        return web.read()\n"
     "    def use(self):\n        db.run(self.get())\n",
     true},
    {"InliningThroughSelfOfConstant",
     "class C:\n    def get(self):\n        x = web.read()\n        return 1\n"
     "    def use(self):\n        db.run(self.get())\n",
     false},
    {"ConstructorInlining",
     "class C:\n    def __init__(self, v):\n        db.run(v)\nC(web.read())\n",
     true},

    // Field flow through an alias: the store goes through the alias, the
    // load through the original.
    {"FieldThroughName",
     "a = make()\np = a\np.f = web.read()\ndb.run(a.f)\n", true},
    {"FieldThroughNameOtherField",
     "a = make()\np = a\np.f = web.read()\ndb.run(a.g)\n", false},
    {"FieldThroughNameOtherObject",
     "a = make()\nb = make()\np = a\np.f = web.read()\ndb.run(b.f)\n",
     false},
    {"FieldThroughAttribute",
     "a = make()\nh = box()\nh.x = a\np = h.x\np.f = web.read()\n"
     "db.run(a.f)\n",
     true},
    {"FieldThroughSubscript",
     "a = make()\nd = {}\nd['k'] = a\np = d['j']\np.f = web.read()\n"
     "db.run(a.f)\n",
     true},
    {"FieldThroughCallResultIsFresh",
     "a = make()\np = ident(a)\np.f = web.read()\ndb.run(a.f)\n", false},
    {"FieldThroughBoolOp",
     "a = make()\np = a or b\np.f = web.read()\ndb.run(a.f)\n", true},
    {"FieldThroughConditional",
     "a = make()\np = a if c else b\np.f = web.read()\ndb.run(a.f)\n", true},
    {"FieldThroughBinaryIsFresh",
     "a = make()\np = a + b\np.f = web.read()\ndb.run(a.f)\n", false},
    {"FieldThroughUnary",
     "a = make()\np = -a\np.f = web.read()\ndb.run(a.f)\n", true},
    {"FieldThroughList",
     "a = make()\nl = [a]\np = l[0]\np.f = web.read()\ndb.run(a.f)\n", true},
    {"FieldThroughTuple",
     "a = make()\nt = (a, 1)\np = t[0]\np.f = web.read()\ndb.run(a.f)\n",
     true},
    {"FieldThroughSet",
     "a = make()\ns = {a}\nfor p in s:\n    p.f = web.read()\ndb.run(a.f)\n",
     true},
    {"FieldThroughDict",
     "a = make()\nd = {'k': a}\np = d['k']\np.f = web.read()\ndb.run(a.f)\n",
     true},
    {"FieldThroughStarred",
     "a = make()\nl = [*a]\np = l[0]\np.f = web.read()\ndb.run(a.f)\n",
     true},
    // The Comprehension arm builds its value with no points-to variable, so
    // no field flow reaches the objects it iterates (ROADMAP, "Frontend
    // fidelity": fixing it flips this row).
    {"FieldThroughComprehension",
     "a = make()\nobjs = [a]\nxs = [o for o in objs]\nxs[0].f = web.read()\n"
     "db.run(objs[0].f)\n",
     false},
    {"FieldThroughLambdaIsOpaque",
     "a = make()\np = (lambda: a)()\np.f = web.read()\ndb.run(a.f)\n", false},
    {"FieldThroughForTarget",
     "a = make()\nfor p in [a]:\n    p.f = web.read()\ndb.run(a.f)\n", true},
    {"FieldThroughWith",
     "a = make()\nwith a as p:\n    p.f = web.read()\ndb.run(a.f)\n", true},
    {"FieldThroughTupleUnpacking",
     "a = make()\np, q = a\np.f = web.read()\ndb.run(a.f)\n", true},
    {"FieldThroughStarredTarget",
     "a = make()\n*p, q = a\np.f = web.read()\ndb.run(a.f)\n", true},
    {"FieldThroughAugAssign",
     "a = make()\np = a\np += 1\np.f = web.read()\ndb.run(a.f)\n", true},
    {"FieldThroughIfMerge",
     "a = make()\nif c:\n    p = a\nelse:\n    p = b\np.f = web.read()\n"
     "db.run(a.f)\n",
     true},
    {"FieldThroughGlobal",
     "a = make()\ndef f():\n    global p\n    p = a\nf()\np.f = web.read()\n"
     "db.run(a.f)\n",
     true},
    {"FieldThroughDeletedAlias",
     "a = make()\np = a\ndel p\np.f = web.read()\ndb.run(a.f)\n", false},
    {"FieldThroughParameterIsFresh",
     "a = make()\ndef f(p):\n    p.f = web.read()\nf(a)\ndb.run(a.f)\n",
     false},
    {"FieldThroughSelfAcrossMethods",
     "class C:\n    def put(self):\n        self.f = web.read()\n"
     "    def get(self):\n        db.run(self.f)\n",
     true},
    {"FieldThroughConstructedInstances",
     "class C:\n    pass\na = C()\nb = C()\nb.f = web.read()\ndb.run(a.f)\n",
     true},
    {"FieldThroughClassBodyIsScratch",
     "a = make()\nclass C:\n    p = a\np.f = web.read()\ndb.run(a.f)\n",
     false},
};

class ConstructMatrixTest : public testing::TestWithParam<ConstructCase> {};

TEST_P(ConstructMatrixTest, CarriesTheSourceIntoTheSinkOrNot) {
  const ConstructCase &C = GetParam();
  BuildOptions Opts;
  Opts.ModelLocals = C.ModelLocals;
  std::string Source = "import web\nimport db\n";
  Source += C.Source;
  GraphFixture F(Source, Opts);
  std::vector<EventId> Sources = F.eventsByRep("web.read()");
  std::vector<EventId> Sinks = F.eventsByRep("db.run()");
  ASSERT_FALSE(Sources.empty());
  ASSERT_FALSE(Sinks.empty());
  bool Flows = false;
  for (EventId Src : Sources)
    for (EventId Sink : Sinks)
      Flows |= F.flowsTo(Src, Sink);
  EXPECT_EQ(Flows, C.Flows) << C.Source;
}

INSTANTIATE_TEST_SUITE_P(
    Constructs, ConstructMatrixTest, testing::ValuesIn(ConstructCases),
    [](const testing::TestParamInfo<ConstructCase> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// Graph structure
//===----------------------------------------------------------------------===//

TEST(GraphBuilderTest, GraphIsAcyclic) {
  GraphFixture F("import web\n"
                 "x = web.read()\n"
                 "while cond:\n"
                 "    x = wrap(x)\n"
                 "def f(a):\n    return f(a)\n"
                 "f(x)\n");
  EXPECT_TRUE(F.Graph.isAcyclic());
}

TEST(GraphBuilderTest, PaperFig2aEndToEnd) {
  GraphFixture F("from yak.web import app\n"
                 "from flask import request\n"
                 "from werkzeug import secure_filename\n"
                 "import os\n"
                 "\n"
                 "blog_dir = app.config['PATH']\n"
                 "\n"
                 "@app.route('/media/', methods=['POST'])\n"
                 "def media():\n"
                 "    filename = request.files['f'].filename\n"
                 "    filename = secure_filename(filename)\n"
                 "    path = os.path.join(blog_dir, filename)\n"
                 "    if not os.path.exists(path):\n"
                 "        request.files['f'].save(path)\n");

  EventId A = F.theEvent("flask.request.files['f'].filename");
  EventId B = F.theEvent("werkzeug.secure_filename()");
  EventId C = F.theEvent("os.path.join()");
  EventId E = F.theEvent("yak.web.app.config['PATH']");
  EventId Fx = F.theEvent("os.path.exists()");
  EventId D = F.theEvent("flask.request.files['f'].save()");

  // The propagation structure of Fig. 2b.
  EXPECT_TRUE(F.hasEdge(A, B));
  EXPECT_TRUE(F.hasEdge(B, C));
  EXPECT_TRUE(F.hasEdge(E, C));
  EXPECT_TRUE(F.hasEdge(C, Fx));
  EXPECT_TRUE(F.hasEdge(C, D));
  EXPECT_TRUE(F.flowsTo(A, D));
  EXPECT_TRUE(F.Graph.isAcyclic());
}

TEST(GraphBuilderTest, AppendKeepsGraphsDisjoint) {
  GraphFixture F1("import web\nx = web.read()\n");
  GraphFixture F2("import db\ndb.run(1)\n");
  PropagationGraph G;
  G.append(F1.Graph);
  G.append(F2.Graph);
  EXPECT_EQ(G.numEvents(), F1.Graph.numEvents() + F2.Graph.numEvents());
  EXPECT_EQ(G.numEdges(), F1.Graph.numEdges() + F2.Graph.numEdges());
  EXPECT_EQ(G.files().size(), 2u);
}

TEST(PropagationGraphTest, AppendByMoveMatchesAppendByCopy) {
  GraphFixture F1("import web\nimport db\n"
                  "x = web.read()\n"
                  "db.run(wrap(x), x)\n");
  GraphFixture F2("from flask import request\n"
                  "import os\n"
                  "p = os.path.join(request.args['a'], request.args['b'])\n"
                  "os.remove(p)\n",
                  BuildOptions(), "views.py");
  PropagationGraph Copied;
  Copied.append(F1.Graph);
  Copied.append(F2.Graph);
  PropagationGraph First = F1.Graph, Second = F2.Graph;
  PropagationGraph Moved;
  Moved.reserve(First.numEvents() + Second.numEvents(), 2);
  Moved.append(std::move(First));
  Moved.append(std::move(Second));

  ASSERT_EQ(Moved.numEvents(), Copied.numEvents());
  EXPECT_EQ(Moved.numEdges(), Copied.numEdges());
  EXPECT_EQ(Moved.files(), Copied.files());
  for (EventId Id = 0; Id < Copied.numEvents(); ++Id) {
    const Event &M = Moved.event(Id), &C = Copied.event(Id);
    EXPECT_EQ(M.Id, Id);
    EXPECT_EQ(M.Id, C.Id);
    EXPECT_EQ(M.FileIdx, C.FileIdx);
    EXPECT_EQ(M.Kind, C.Kind);
    EXPECT_EQ(M.Candidates, C.Candidates);
    EXPECT_EQ(strings(M.Reps), strings(C.Reps));
    EXPECT_EQ(ids(Moved.successors(Id)), ids(Copied.successors(Id)));
    EXPECT_EQ(ids(Moved.predecessors(Id)), ids(Copied.predecessors(Id)));
    EXPECT_TRUE(std::is_sorted(Moved.predecessors(Id).begin(),
                               Moved.predecessors(Id).end()))
        << "predecessors are rebuilt in source-event order";
  }
  // The second graph's events, edges and file moved over shifted.
  const EventId Offset = static_cast<EventId>(F1.Graph.numEvents());
  for (EventId Id = 0; Id < F2.Graph.numEvents(); ++Id) {
    EXPECT_EQ(Moved.event(Id + Offset).FileIdx, 1u);
    std::vector<EventId> Shifted;
    for (EventId To : F2.Graph.successors(Id))
      Shifted.push_back(To + Offset);
    EXPECT_EQ(ids(Moved.successors(Id + Offset)), Shifted);
  }
}

TEST(PropagationGraphTest, SearchesMatchTheReferenceBfs) {
  // A fixture graph, and a collapsed one with a cycle: one() flows m.f()
  // into m.g(), two() flows m.g() into m.f(), and collapsing by
  // representation joins the two pairs.
  GraphFixture Fig2a("from flask import request\n"
                     "from werkzeug import secure_filename\n"
                     "import os\n"
                     "def media(base):\n"
                     "    name = secure_filename(request.files['f'].name)\n"
                     "    path = os.path.join(base, name)\n"
                     "    if not os.path.exists(path):\n"
                     "        request.files['f'].save(path)\n");
  GraphFixture Loop("import m\n"
                    "def one(x):\n"
                    "    return m.g(m.f(x))\n"
                    "def two(w):\n"
                    "    return m.f(m.g(w))\n");
  PropagationGraph Cyclic = Loop.Graph.collapseByRep();
  ASSERT_FALSE(Cyclic.isAcyclic());

  // Calls alternate between the graphs, so reused marks from one search
  // (and from a larger graph) must never leak into the next.
  for (int Round = 0; Round < 2; ++Round)
    for (const PropagationGraph *G : {&Fig2a.Graph, &Cyclic}) {
      for (EventId Id = 0; Id < G->numEvents(); ++Id) {
        EXPECT_EQ(G->reachableFrom(Id), referenceSearch(*G, Id, true));
        EXPECT_EQ(G->reachingTo(Id), referenceSearch(*G, Id, false));
      }
    }

  // On the cycle, every event reaches the other but never lists itself.
  EventId F = InvalidEvent, G = InvalidEvent;
  for (const Event &E : Cyclic.events()) {
    if (E.primaryRep() == "m.f()")
      F = E.Id;
    if (E.primaryRep() == "m.g()")
      G = E.Id;
  }
  ASSERT_NE(F, InvalidEvent);
  ASSERT_NE(G, InvalidEvent);
  for (EventId Start : {F, G}) {
    std::vector<EventId> Fwd = Cyclic.reachableFrom(Start);
    std::vector<EventId> Bwd = Cyclic.reachingTo(Start);
    EventId Other = Start == F ? G : F;
    EXPECT_EQ(std::count(Fwd.begin(), Fwd.end(), Other), 1);
    EXPECT_EQ(std::count(Bwd.begin(), Bwd.end(), Other), 1);
    EXPECT_EQ(std::count(Fwd.begin(), Fwd.end(), Start), 0);
    EXPECT_EQ(std::count(Bwd.begin(), Bwd.end(), Start), 0);
  }
}

TEST(PropagationGraphTest, CollapseByRepMergesSameRep) {
  GraphFixture F("from flask import request\n"
                 "a = request.files['f']\n"
                 "b = request.files['f']\n");
  ASSERT_EQ(F.eventsByRep("flask.request.files['f']").size(), 2u);
  PropagationGraph Collapsed = F.Graph.collapseByRep();
  std::vector<EventId> Merged;
  for (const Event &E : Collapsed.events())
    if (E.primaryRep() == "flask.request.files['f']")
      Merged.push_back(E.Id);
  EXPECT_EQ(Merged.size(), 1u);
}

TEST(PropagationGraphTest, CollapseCreatesSpuriousFlow) {
  // Paper Fig. 8: collapsing conflates unrelated events, creating flow from
  // the source to the sink that does not exist in the original program.
  GraphFixture F("import web\nimport scrub\nimport db\n"
                 "def f():\n"
                 "    x = web.src()\n"
                 "    y = scrub.san(x)\n"
                 "def g():\n"
                 "    x = 1\n"
                 "    y = scrub.san(x)\n"
                 "    db.sink(y)\n");
  EventId Src = F.theEvent("web.src()");
  EventId Sink = F.theEvent("db.sink()");
  EXPECT_FALSE(F.flowsTo(Src, Sink)) << "uncollapsed graph must be precise";

  PropagationGraph Collapsed = F.Graph.collapseByRep();
  EventId CSrc = InvalidEvent, CSink = InvalidEvent;
  for (const Event &E : Collapsed.events()) {
    if (E.primaryRep() == "web.src()")
      CSrc = E.Id;
    if (E.primaryRep() == "db.sink()")
      CSink = E.Id;
  }
  ASSERT_NE(CSrc, InvalidEvent);
  ASSERT_NE(CSink, InvalidEvent);
  auto R = Collapsed.reachableFrom(CSrc);
  EXPECT_TRUE(std::find(R.begin(), R.end(), CSink) != R.end())
      << "collapsed graph must conflate the two san() calls (Fig. 8)";
}

TEST(PropagationGraphTest, IsAcyclicDetectsCycles) {
  PropagationGraph G;
  uint32_t File = G.addFile("f.py");
  EventId A = G.addEvent(EventKind::Call, 0, File, {}, {"a()"});
  EventId B = G.addEvent(EventKind::Call, 0, File, {}, {"b()"});
  G.addEdge(A, B);
  EXPECT_TRUE(G.isAcyclic());
  G.addEdge(B, A);
  EXPECT_FALSE(G.isAcyclic());
}

/// Asserts that \p G's events read their strings through its table, and
/// that lookup() finds each table string at its id.
void expectConsistentTable(const PropagationGraph &G) {
  for (const Event &E : G.events())
    for (size_t I = 0; I < E.Reps.size(); ++I)
      EXPECT_EQ(G.repStrings()[E.repIds()[I]], E.Reps[I]);
  for (RepId Id = 0; Id < G.repStrings().size(); ++Id) {
    RepId Found = ~RepId(0);
    EXPECT_TRUE(G.lookup(G.repStrings()[Id], Found)) << G.repStrings()[Id];
    EXPECT_EQ(Found, Id);
  }
}

/// Asserts that \p G's table is in first-occurrence order: event order,
/// then option order.
void expectFirstOccurrenceOrder(const PropagationGraph &G) {
  RepId Next = 0;
  for (const Event &E : G.events())
    for (RepId Id : E.repIds()) {
      EXPECT_LE(Id, Next);
      Next += Id == Next;
    }
  EXPECT_EQ(Next, G.repStrings().size());
}

/// A graph of two files written by hand: "shared()" occurs in both, and
/// edges come in an order that is not source-event order.
PropagationGraph handWritten() {
  PropagationGraph G;
  uint32_t F0 = G.addFile("a.py");
  uint32_t F1 = G.addFile("b.py");
  G.addEvent(EventKind::Call, AllRolesMask, F0, {1, 0}, {"x.src()", "src()"});
  G.addEvent(EventKind::Call, AllRolesMask, F0, {2, 0}, {"shared()"});
  G.addEvent(EventKind::ObjectRead, SourceMask, F1, {3, 4}, {"y.z", "shared()"});
  G.addEvent(EventKind::Call, AllRolesMask, F1, {4, 0}, {"y.snk()"});
  G.addEdges(std::vector<Edge>{{2, 3}, {0, 1}, {0, 3}, {1, 3}, {0, 1},
                               {3, 3}, {0, 2}});
  return G;
}

TEST(PropagationGraphTest, ViewsByIndexMatchViewsByIteration) {
  GraphFixture F("from flask import request\n"
                 "import os\n"
                 "def media(f):\n"
                 "    os.system(request.args.get('a') + f.name)\n");
  const PropagationGraph &G = F.Graph;
  ASSERT_GT(G.numEvents(), 3u);
  EXPECT_EQ(G.events().size(), G.numEvents());
  EventId Next = 0;
  size_t Options = 0;
  for (const Event &E : G.events()) {
    const Event &ById = G.event(Next);
    EXPECT_EQ(E.Id, Next);
    EXPECT_EQ(ById.Id, Next);
    EXPECT_EQ(E.Kind, ById.Kind);
    EXPECT_EQ(E.Candidates, ById.Candidates);
    EXPECT_EQ(E.FileIdx, ById.FileIdx);
    EXPECT_EQ(E.Loc.Line, ById.Loc.Line);
    EXPECT_EQ(E.Loc.Col, ById.Loc.Col);
    EXPECT_EQ(strings(E.Reps), strings(ById.Reps));
    EXPECT_EQ(E.primaryRep(), E.Reps.front());
    EXPECT_EQ(&E.primaryRep(), &E.Reps[0]);
    Options += E.Reps.size();
    ++Next;
  }
  EXPECT_EQ(Next, G.numEvents());
  EXPECT_EQ(Options, G.numOptions());

  // A copy's views read the copy's arrays, and equal the original's.
  PropagationGraph Copy = G;
  for (EventId Id = 0; Id < G.numEvents(); ++Id) {
    const Event &Orig = G.event(Id), &Copied = Copy.event(Id);
    EXPECT_EQ(strings(Orig.Reps), strings(Copied.Reps));
    EXPECT_EQ(&Copied.primaryRep(), &Copy.repStrings()[Copied.repIds()[0]]);
    EXPECT_NE(&Copied.primaryRep(), &Orig.primaryRep());
    EXPECT_NE(Copied.repIds().data(), Orig.repIds().data());
    EXPECT_EQ(ids(Copy.successors(Id)), ids(G.successors(Id)));
    if (!G.successors(Id).empty()) {
      EXPECT_NE(Copy.successors(Id).data(), G.successors(Id).data());
    }
  }
}

TEST(PropagationGraphTest, EdgesKeepOrderAndDropDuplicates) {
  PropagationGraph G = handWritten();
  // The duplicate 0 -> 1 and the self-edge 3 -> 3 are dropped.
  EXPECT_EQ(G.numEdges(), 5u);
  // Successors in insertion order.
  EXPECT_EQ(ids(G.successors(0)), (std::vector<EventId>{1, 3, 2}));
  EXPECT_EQ(ids(G.successors(1)), (std::vector<EventId>{3}));
  EXPECT_EQ(ids(G.successors(2)), (std::vector<EventId>{3}));
  EXPECT_TRUE(G.successors(3).empty());
  // Predecessors as written: 2 -> 3 came first.
  EXPECT_EQ(ids(G.predecessors(3)), (std::vector<EventId>{2, 0, 1}));
  EXPECT_EQ(ids(G.predecessors(1)), (std::vector<EventId>{0}));
  EXPECT_TRUE(G.predecessors(0).empty());
  // Adding an existing edge later changes nothing; a new one goes last.
  G.addEdge(0, 3);
  G.addEdge(1, 2);
  EXPECT_EQ(G.numEdges(), 6u);
  EXPECT_EQ(ids(G.successors(1)), (std::vector<EventId>{3, 2}));
  EXPECT_EQ(ids(G.predecessors(2)), (std::vector<EventId>{0, 1}));

  // Written From-ascending, as decoding does, predecessors are in
  // source-event order; after append they always are.
  PropagationGraph Merged;
  Merged.append(handWritten());
  EXPECT_EQ(ids(Merged.successors(0)), (std::vector<EventId>{1, 3, 2}));
  EXPECT_EQ(ids(Merged.predecessors(3)), (std::vector<EventId>{0, 1, 2}));
  for (EventId Id = 0; Id < Merged.numEvents(); ++Id) {
    std::span<const EventId> In = Merged.predecessors(Id);
    EXPECT_TRUE(std::is_sorted(In.begin(), In.end()));
  }
}

TEST(PropagationGraphTest, AppendRemapsIdsFilesAndOptions) {
  PropagationGraph First = handWritten();
  PropagationGraph Second;
  uint32_t File = Second.addFile("c.py");
  Second.addEvent(EventKind::Call, AllRolesMask, File, {7, 1},
                  {"z.new()", "shared()"});
  Second.addEvent(EventKind::Call, AllRolesMask, File, {8, 1}, {"x.src()"});
  Second.addEdge(1, 0);

  PropagationGraph G = First;
  G.reserve(Second.numEvents(), Second.files().size(), Second.numOptions(),
            Second.numEdges());
  G.append(Second);
  ASSERT_EQ(G.numEvents(), 6u);
  EXPECT_EQ(G.numEdges(), First.numEdges() + 1);
  EXPECT_EQ(G.files(),
            (std::vector<std::string>{"a.py", "b.py", "c.py"}));
  EXPECT_EQ(G.numOptions(), First.numOptions() + Second.numOptions());

  // Events 4 and 5 are Second's 0 and 1, in file 2.
  const Event &New = G.event(4), &Src = G.event(5);
  EXPECT_EQ(New.Id, 4u);
  EXPECT_EQ(New.FileIdx, 2u);
  EXPECT_EQ(New.Loc.Line, 7u);
  EXPECT_EQ(strings(New.Reps),
            (std::vector<std::string>{"z.new()", "shared()"}));
  EXPECT_EQ(strings(Src.Reps), (std::vector<std::string>{"x.src()"}));
  // Shared strings keep their ids; the unseen one joins the table last.
  EXPECT_EQ(G.repStrings(),
            (std::vector<std::string>{"x.src()", "src()", "shared()", "y.z",
                                      "y.snk()", "z.new()"}));
  EXPECT_EQ(New.repIds()[1], G.event(1).repIds()[0]);
  EXPECT_EQ(Src.repIds()[0], G.event(0).repIds()[0]);
  EXPECT_EQ(New.repIds()[0], 5u);
  // Second's edge 1 -> 0 is now 5 -> 4; First's edges are untouched.
  EXPECT_EQ(ids(G.successors(5)), (std::vector<EventId>{4}));
  EXPECT_EQ(ids(G.predecessors(4)), (std::vector<EventId>{5}));
  EXPECT_TRUE(G.successors(4).empty());
  for (EventId Id = 0; Id < First.numEvents(); ++Id) {
    EXPECT_EQ(ids(G.successors(Id)), ids(First.successors(Id)));
    EXPECT_EQ(strings(G.event(Id).Reps), strings(First.event(Id).Reps));
  }
  expectConsistentTable(G);
  expectFirstOccurrenceOrder(G);
}

TEST(PropagationGraphTest, TableIdsAreRepTableIds) {
  GraphFixture F1("from flask import request\nimport os\n"
                  "def media(f):\n"
                  "    os.system(request.args.get('a') + f.name)\n");
  GraphFixture F2("import os\nimport web\n"
                  "os.system(web.read())\nweb.read()\n",
                  BuildOptions(), "b.py");
  PropagationGraph Merged;
  Merged.append(F1.Graph);
  Merged.append(F2.Graph);
  Merged.append(handWritten());
  io::IOResult<PropagationGraph> Decoded = decodeGraph(encodeGraph(Merged));
  ASSERT_TRUE(Decoded.ok()) << Decoded.Error;
  EXPECT_EQ(Decoded.Value.repStrings(), Merged.repStrings());
  // Built, appended and decoded graphs keep first-occurrence order.
  for (const PropagationGraph *G :
       {&F1.Graph, &F2.Graph, &Merged, &Decoded.Value}) {
    expectConsistentTable(*G);
    expectFirstOccurrenceOrder(*G);
  }
  expectConsistentTable(handWritten());
  expectFirstOccurrenceOrder(handWritten());

  // A RepTable has no ids of its own: it reads the graph's table.
  const RepTable Table = countedTable(Merged);
  ASSERT_EQ(Table.size(), Merged.repStrings().size());
  for (RepId Id = 0; Id < Table.size(); ++Id) {
    EXPECT_EQ(Table.repString(Id), Merged.repStrings()[Id]);
    RepId Found = ~RepId(0);
    EXPECT_TRUE(Table.lookup(Merged.repStrings()[Id], Found));
    EXPECT_EQ(Found, Id);
  }
  RepId Unused;
  EXPECT_FALSE(Table.lookup("never.seen()", Unused));
  EXPECT_FALSE(RepTable().lookup("web.read()", Unused));
  EXPECT_FALSE(PropagationGraph().lookup("web.read()", Unused));
  EXPECT_TRUE(Table.sharesTableWith(Table.graph()));
  EXPECT_TRUE(Table.sharesTableWith(Decoded.Value));
  EXPECT_FALSE(Table.sharesTableWith(F1.Graph));
  EXPECT_FALSE(RepTable().sharesTableWith(F1.Graph));
}

TEST(PropagationGraphTest, CollapseKeepsTheSourceTable) {
  // Merging the two a() events puts y() before b() in the collapsed
  // graph's first-occurrence order; the collapsed graph keeps the source's
  // table instead, so every option id names the same string in both.
  PropagationGraph G;
  uint32_t File = G.addFile("f.py");
  EventId A1 = G.addEvent(EventKind::Call, SourceMask, File, {1, 0},
                          {"a()", "x()"});
  EventId B = G.addEvent(EventKind::Call, SinkMask, File, {2, 0}, {"b()"});
  G.addEvent(EventKind::Call, SanitizerMask, File, {3, 0}, {"a()", "y()"});
  G.addEdge(A1, B);
  const std::vector<std::string> Source = {"a()", "x()", "b()", "y()"};
  ASSERT_EQ(G.repStrings(), Source);

  PropagationGraph Collapsed = G.collapseByRep();
  ASSERT_EQ(Collapsed.numEvents(), 2u);
  EXPECT_EQ(Collapsed.repStrings(), Source);
  expectConsistentTable(Collapsed);
  // Each node keeps its members' options in first-occurrence order, as
  // the source's ids.
  EXPECT_EQ(ids(Collapsed.event(0).repIds()),
            (std::vector<RepId>{0, 1, 3}));
  EXPECT_EQ(strings(Collapsed.event(0).Reps),
            (std::vector<std::string>{"a()", "x()", "y()"}));
  EXPECT_EQ(ids(Collapsed.event(1).repIds()), (std::vector<RepId>{2}));
  EXPECT_EQ(Collapsed.event(0).Candidates, SourceMask | SanitizerMask);
  EXPECT_EQ(ids(Collapsed.successors(0)), (std::vector<EventId>{1}));

  const RepTable Table = countedTable(G);
  EXPECT_TRUE(Table.sharesTableWith(Collapsed));
  RepId Y;
  ASSERT_TRUE(Collapsed.lookup("y()", Y));
  EXPECT_EQ(Y, 3u);
  EXPECT_EQ(Table.occurrences(0), 2u) << "counts come from the source";
}

TEST(PropagationGraphTest, DecodeGivesTheSameViewsTableAndAdjacency) {
  GraphFixture F("from flask import request\nimport os\n"
                 "p = os.path.join(request.args['a'], request.args['b'])\n"
                 "os.remove(p)\n");
  for (bool Merge : {false, true}) {
    PropagationGraph Source = F.Graph;
    if (Merge)
      Source.append(handWritten());
    io::IOResult<PropagationGraph> Decoded = decodeGraph(encodeGraph(Source));
    ASSERT_TRUE(Decoded.ok()) << Decoded.Error;
    const PropagationGraph &D = Decoded.Value;
    ASSERT_EQ(D.numEvents(), Source.numEvents());
    EXPECT_EQ(D.numEdges(), Source.numEdges());
    EXPECT_EQ(D.numOptions(), Source.numOptions());
    EXPECT_EQ(D.files(), Source.files());
    EXPECT_EQ(D.repStrings(), Source.repStrings());
    for (EventId Id = 0; Id < Source.numEvents(); ++Id) {
      const Event &A = Source.event(Id), &B = D.event(Id);
      EXPECT_EQ(A.Kind, B.Kind);
      EXPECT_EQ(A.Candidates, B.Candidates);
      EXPECT_EQ(A.FileIdx, B.FileIdx);
      EXPECT_EQ(A.Loc.Line, B.Loc.Line);
      EXPECT_EQ(A.Loc.Col, B.Loc.Col);
      EXPECT_EQ(ids(A.repIds()), ids(B.repIds()));
      EXPECT_EQ(ids(Source.successors(Id)), ids(D.successors(Id)));
      // Decoding adds edges From-ascending, so predecessors come out in
      // source-event order.
      std::vector<EventId> In = ids(Source.predecessors(Id));
      std::sort(In.begin(), In.end());
      EXPECT_EQ(ids(D.predecessors(Id)), In);
    }
  }
}

//===----------------------------------------------------------------------===//
// RepTable
//===----------------------------------------------------------------------===//

TEST(RepTableTest, CountsAndCutoff) {
  // Six calls to web.read() and one rare call; cutoff 5 keeps the frequent
  // representation and drops the rare one.
  std::string Source = "import web\nimport rare\n";
  for (int I = 0; I < 6; ++I)
    Source += "x" + std::to_string(I) + " = web.read()\n";
  Source += "y = rare.api()\n";
  GraphFixture F(Source);

  const RepTable Table = countedTable(F.Graph);
  RepId Read;
  ASSERT_TRUE(Table.lookup("web.read()", Read));
  EXPECT_EQ(Table.occurrences(Read), 6u);

  const std::vector<uint8_t> AtFive = Table.keepVerdicts(5, GlobSet());
  const std::vector<uint8_t> AtOne = Table.keepVerdicts(1, GlobSet());
  ASSERT_EQ(AtFive.size(), Table.size());
  const Event &Frequent = F.Graph.event(F.eventsByRep("web.read()").front());
  EXPECT_EQ(keptOptions(AtFive, Frequent).size(), 1u);
  const Event &Rare = F.Graph.event(F.theEvent("rare.api()"));
  EXPECT_TRUE(keptOptions(AtFive, Rare).empty())
      << "rare events are ignored entirely (§4.3)";
  EXPECT_EQ(keptOptions(AtOne, Rare).size(), 1u);

  // The blacklist (§7.2) vetoes a representation however frequent.
  GlobSet Blacklist;
  Blacklist.add("web.*");
  const std::vector<uint8_t> Vetoed = Table.keepVerdicts(1, Blacklist);
  EXPECT_EQ(Vetoed[Read], 0);
  EXPECT_EQ(keptOptions(Vetoed, Rare).size(), 1u);
}

TEST(RepTableTest, BackoffOrderPreserved) {
  GraphFixture F("def media(f):\n"
                 "    f.save(p)\n");
  const RepTable Table = countedTable(F.Graph);
  const Event &Call =
      F.Graph.event(F.theEvent("media(param f).save()"));
  std::vector<RepId> Options =
      keptOptions(Table.keepVerdicts(1, GlobSet()), Call);
  ASSERT_EQ(Options.size(), 2u);
  EXPECT_EQ(Table.repString(Options[0]), "media(param f).save()");
  EXPECT_EQ(Table.repString(Options[1]), "f.save()");
}

} // namespace
