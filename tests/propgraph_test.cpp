//===- tests/propgraph_test.cpp - Tests for the propagation graph ---------===//

#include "propgraph/GraphBuilder.h"
#include "propgraph/GraphCodec.h"
#include "propgraph/RepTable.h"
#include "pysem/Project.h"

#include <gtest/gtest.h>

#include <algorithm>
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
std::vector<RepId> keptOptions(const RepTable &Table,
                               const std::vector<uint8_t> &Keep,
                               const Event &E) {
  std::vector<RepId> Out;
  for (const std::string &Rep : E.Reps) {
    RepId Id;
    if (Table.lookup(Rep, Id) && Keep[Id])
      Out.push_back(Id);
  }
  return Out;
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

/// Asserts that \p G's table ids are the ids a fresh RepTable assigns.
void expectTableMatchesRepTable(const PropagationGraph &G) {
  RepTable Fresh;
  Fresh.countOccurrences(G);
  ASSERT_EQ(Fresh.size(), G.repStrings().size());
  for (RepId Id = 0; Id < Fresh.size(); ++Id)
    EXPECT_EQ(Fresh.repString(Id), G.repStrings()[Id]) << "id " << Id;
  for (const Event &E : G.events())
    for (size_t I = 0; I < E.Reps.size(); ++I)
      EXPECT_EQ(G.repStrings()[E.repIds()[I]], E.Reps[I]);
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
  expectTableMatchesRepTable(G);
}

TEST(PropagationGraphTest, TableIdsAreRepTableIds) {
  GraphFixture F1("from flask import request\nimport os\n"
                  "def media(f):\n"
                  "    os.system(request.args.get('a') + f.name)\n");
  GraphFixture F2("import os\nimport web\n"
                  "os.system(web.read())\nweb.read()\n",
                  BuildOptions(), "b.py");
  expectTableMatchesRepTable(F1.Graph);
  expectTableMatchesRepTable(F2.Graph);
  expectTableMatchesRepTable(handWritten());

  PropagationGraph Merged;
  Merged.append(F1.Graph);
  Merged.append(F2.Graph);
  Merged.append(handWritten());
  expectTableMatchesRepTable(Merged);

  io::IOResult<PropagationGraph> Decoded = decodeGraph(encodeGraph(Merged));
  ASSERT_TRUE(Decoded.ok()) << Decoded.Error;
  expectTableMatchesRepTable(Decoded.Value);
  EXPECT_EQ(Decoded.Value.repStrings(), Merged.repStrings());

  // A collapsed graph has its own table, in its own first-occurrence order.
  expectTableMatchesRepTable(Merged.collapseByRep());
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

  RepTable Table;
  Table.countOccurrences(F.Graph);
  RepId Read;
  ASSERT_TRUE(Table.lookup("web.read()", Read));
  EXPECT_EQ(Table.occurrences(Read), 6u);

  const std::vector<uint8_t> AtFive = Table.keepVerdicts(5, GlobSet());
  const std::vector<uint8_t> AtOne = Table.keepVerdicts(1, GlobSet());
  ASSERT_EQ(AtFive.size(), Table.size());
  const Event &Frequent = F.Graph.event(F.eventsByRep("web.read()").front());
  EXPECT_EQ(keptOptions(Table, AtFive, Frequent).size(), 1u);
  const Event &Rare = F.Graph.event(F.theEvent("rare.api()"));
  EXPECT_TRUE(keptOptions(Table, AtFive, Rare).empty())
      << "rare events are ignored entirely (§4.3)";
  EXPECT_EQ(keptOptions(Table, AtOne, Rare).size(), 1u);

  // The blacklist (§7.2) vetoes a representation however frequent.
  GlobSet Blacklist;
  Blacklist.add("web.*");
  const std::vector<uint8_t> Vetoed = Table.keepVerdicts(1, Blacklist);
  EXPECT_EQ(Vetoed[Read], 0);
  EXPECT_EQ(keptOptions(Table, Vetoed, Rare).size(), 1u);
}

TEST(RepTableTest, BackoffOrderPreserved) {
  GraphFixture F("def media(f):\n"
                 "    f.save(p)\n");
  RepTable Table;
  Table.countOccurrences(F.Graph);
  const Event &Call =
      F.Graph.event(F.theEvent("media(param f).save()"));
  std::vector<RepId> Options =
      keptOptions(Table, Table.keepVerdicts(1, GlobSet()), Call);
  ASSERT_EQ(Options.size(), 2u);
  EXPECT_EQ(Table.repString(Options[0]), "media(param f).save()");
  EXPECT_EQ(Table.repString(Options[1]), "f.save()");
}

} // namespace
