//===- tests/graphbuilder2_test.cpp - Frontend coverage, second batch -----===//
//
// Further propagation-graph construction coverage: statement forms, call
// shapes, and representation corner cases beyond propgraph_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "propgraph/GraphBuilder.h"
#include "pysem/Project.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace seldon;
using namespace seldon::propgraph;

namespace {

struct Fixture {
  pysem::Project Proj;
  PropagationGraph Graph;

  explicit Fixture(std::string_view Source) {
    const pysem::ModuleInfo &M = Proj.addModule("app.py", Source);
    std::vector<pyast::ParseError> Errors;
    Graph = buildModuleGraph(Proj, M, BuildOptions(), &Errors);
    EXPECT_TRUE(Errors.empty())
        << (Errors.empty() ? "" : Errors.front().Message);
  }

  EventId theEvent(const std::string &Rep) const {
    for (const Event &E : Graph.events())
      if (E.primaryRep() == Rep)
        return E.Id;
    ADD_FAILURE() << "no event " << Rep;
    return InvalidEvent;
  }

  bool hasEvent(const std::string &Rep) const {
    for (const Event &E : Graph.events())
      if (E.primaryRep() == Rep)
        return true;
    return false;
  }

  bool flowsTo(const std::string &From, const std::string &To) const {
    EventId F = InvalidEvent, T = InvalidEvent;
    for (const Event &E : Graph.events()) {
      if (E.primaryRep() == From)
        F = E.Id;
      if (E.primaryRep() == To)
        T = E.Id;
    }
    if (F == InvalidEvent || T == InvalidEvent)
      return false;
    auto R = Graph.reachableFrom(F);
    return std::find(R.begin(), R.end(), T) != R.end();
  }
};

TEST(GraphBuilder2Test, WithAsBindsContextFlow) {
  Fixture F("import web\nimport fs\n"
            "with web.open_stream() as s:\n"
            "    fs.write(s)\n");
  EXPECT_TRUE(F.flowsTo("web.open_stream()", "fs.write()"));
}

TEST(GraphBuilder2Test, TryExceptElseFinallyFlows) {
  Fixture F("import web\nimport db\nimport log\n"
            "try:\n"
            "    x = web.read()\n"
            "except ValueError as e:\n"
            "    log.warn(e)\n"
            "else:\n"
            "    db.run(x)\n"
            "finally:\n"
            "    db.close(x)\n");
  EXPECT_TRUE(F.flowsTo("web.read()", "db.run()"));
  EXPECT_TRUE(F.flowsTo("web.read()", "db.close()"));
}

TEST(GraphBuilder2Test, AugmentedAssignmentAccumulates) {
  Fixture F("import web\nimport db\n"
            "q = 'SELECT '\n"
            "q += web.read()\n"
            "db.run(q)\n");
  EXPECT_TRUE(F.flowsTo("web.read()", "db.run()"));
}

TEST(GraphBuilder2Test, ReassignmentKillsOldFlow) {
  Fixture F("import web\nimport db\n"
            "x = web.read()\n"
            "x = 'constant'\n"
            "db.run(x)\n");
  EXPECT_FALSE(F.flowsTo("web.read()", "db.run()"));
}

TEST(GraphBuilder2Test, StarArgsFlowIntoCall) {
  Fixture F("import web\nimport db\n"
            "args = [web.read()]\n"
            "db.run(*args)\n");
  EXPECT_TRUE(F.flowsTo("web.read()", "db.run()"));
}

TEST(GraphBuilder2Test, DoubleStarKwargsFlowIntoCall) {
  Fixture F("import web\nimport db\n"
            "opts = {'q': web.read()}\n"
            "db.run(**opts)\n");
  EXPECT_TRUE(F.flowsTo("web.read()", "db.run()"));
}

TEST(GraphBuilder2Test, YieldFlowsBackToLocalCaller) {
  Fixture F("import web\nimport db\n"
            "def gen():\n"
            "    yield web.read()\n"
            "db.run(gen())\n");
  EXPECT_TRUE(F.flowsTo("web.read()", "db.run()"));
}

TEST(GraphBuilder2Test, TupleUnpackingSpreadsFlow) {
  Fixture F("import web\nimport db\n"
            "a, b = web.pair()\n"
            "db.run(b)\n");
  EXPECT_TRUE(F.flowsTo("web.pair()", "db.run()"));
}

TEST(GraphBuilder2Test, NestedCallArgumentsChain) {
  Fixture F("import web\nimport db\nimport json\n"
            "db.run(json.dumps(web.read()))\n");
  EXPECT_TRUE(F.flowsTo("web.read()", "json.dumps()"));
  EXPECT_TRUE(F.flowsTo("json.dumps()", "db.run()"));
}

TEST(GraphBuilder2Test, LambdaBodyIsOpaque) {
  // Lambdas are not modeled; they must not crash nor leak flow.
  Fixture F("import web\nimport db\n"
            "f = lambda v: v\n"
            "db.run(f(web.read()))\n");
  EXPECT_TRUE(F.hasEvent("web.read()"));
  EXPECT_TRUE(F.hasEvent("db.run()"));
}

TEST(GraphBuilder2Test, DecoratorWithAttributePath) {
  Fixture F("from flask import app\n"
            "@app.route('/x', methods=['GET'])\n"
            "def view():\n"
            "    pass\n");
  EXPECT_TRUE(F.hasEvent("flask.app.route()"));
}

TEST(GraphBuilder2Test, ConditionalImportStillResolves) {
  Fixture F("try:\n"
            "    import ujson as json\n"
            "except ImportError:\n"
            "    import json\n"
            "x = json.loads(payload)\n");
  // The later binding wins in the import map; either qualified rep is
  // acceptable as long as one exists.
  EXPECT_TRUE(F.hasEvent("json.loads()") || F.hasEvent("ujson.loads()"));
}

TEST(GraphBuilder2Test, MultipleAssignTargetsShareFlow) {
  Fixture F("import web\nimport db\nimport fs\n"
            "a = b = web.read()\n"
            "db.run(a)\n"
            "fs.write(b)\n");
  EXPECT_TRUE(F.flowsTo("web.read()", "db.run()"));
  EXPECT_TRUE(F.flowsTo("web.read()", "fs.write()"));
}

TEST(GraphBuilder2Test, AnnotatedAssignmentFlows) {
  Fixture F("import web\nimport db\n"
            "x: str = web.read()\n"
            "db.run(x)\n");
  EXPECT_TRUE(F.flowsTo("web.read()", "db.run()"));
}

TEST(GraphBuilder2Test, ChainedMethodOnParamBacksOff) {
  Fixture F("def handle(req):\n"
            "    return req.data.decode()\n");
  // Backoff: handle(param req).data.decode() -> req.data.decode().
  EventId Id = F.theEvent("handle(param req).data.decode()");
  const Event &E = F.Graph.event(Id);
  ASSERT_EQ(E.Reps.size(), 2u);
  EXPECT_EQ(E.Reps[1], "req.data.decode()");
}

TEST(GraphBuilder2Test, SubscriptIndexVariantsRender) {
  Fixture F("import web\n"
            "a = web.data['key']\n"
            "b = web.data[3]\n"
            "c = web.data[k]\n");
  EXPECT_TRUE(F.hasEvent("web.data['key']"));
  EXPECT_TRUE(F.hasEvent("web.data[3]"));
  EXPECT_TRUE(F.hasEvent("web.data[]"));
}

TEST(GraphBuilder2Test, ReturnInsideBranches) {
  Fixture F("import web\nimport a\nimport b\nimport db\n"
            "def pick():\n"
            "    if web.flag():\n"
            "        return a.get()\n"
            "    return b.get()\n"
            "db.run(pick())\n");
  EXPECT_TRUE(F.flowsTo("a.get()", "db.run()"));
  EXPECT_TRUE(F.flowsTo("b.get()", "db.run()"));
}

TEST(GraphBuilder2Test, DeleteRemovesBinding) {
  Fixture F("import web\nimport db\n"
            "x = web.read()\n"
            "del x\n"
            "db.run(x)\n");
  EXPECT_FALSE(F.flowsTo("web.read()", "db.run()"));
}

TEST(GraphBuilder2Test, ClassAttributeAssignmentsProcessed) {
  Fixture F("import cfglib\n"
            "class Settings(object):\n"
            "    DB_URL = cfglib.load()\n");
  EXPECT_TRUE(F.hasEvent("cfglib.load()"));
}

TEST(GraphBuilder2Test, WhileConditionEventsCreated) {
  Fixture F("import net\n"
            "while net.poll():\n"
            "    pass\n");
  EXPECT_TRUE(F.hasEvent("net.poll()"));
}

TEST(GraphBuilder2Test, RaiseArgumentEvaluated) {
  Fixture F("import web\n"
            "raise ValueError(web.read())\n");
  EXPECT_TRUE(F.flowsTo("web.read()", "ValueError()"));
}

TEST(GraphBuilder2Test, NestedFunctionProcessed) {
  Fixture F("import web\nimport db\n"
            "def outer():\n"
            "    def inner():\n"
            "        db.run(web.read())\n"
            "    return inner\n");
  EXPECT_TRUE(F.flowsTo("web.read()", "db.run()"));
}

TEST(GraphBuilder2Test, ImportAliasInReps) {
  Fixture F("from django.utils.html import escape as esc\n"
            "y = esc(x)\n");
  EXPECT_TRUE(F.hasEvent("django.utils.html.escape()"));
}

TEST(GraphBuilder2Test, SelfMethodChainOnBaseClassBackoff) {
  Fixture F("from base_driver import ThreadDriver\n"
            "class Printer(ThreadDriver):\n"
            "    def run(self):\n"
            "        self.emit(data)\n");
  EventId Id = F.theEvent("Printer::run(param self).emit()");
  const Event &E = F.Graph.event(Id);
  std::vector<std::string> Expected{
      "Printer::run(param self).emit()",
      "base_driver.ThreadDriver::run(param self).emit()",
      "run(param self).emit()",
      "self.emit()",
  };
  EXPECT_EQ(std::vector<std::string>(E.Reps.begin(), E.Reps.end()), Expected);
}

} // namespace
