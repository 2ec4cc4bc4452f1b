//===- tests/pysem_test.cpp - Tests for project/scope/imports -------------===//

#include "pyast/Parser.h"
#include "pysem/Project.h"
#include "pysem/QualifiedNames.h"
#include "pysem/ScopeBuilder.h"

#include <gtest/gtest.h>

using namespace seldon;
using namespace seldon::pysem;
using namespace seldon::pyast;

namespace {

//===----------------------------------------------------------------------===//
// Project
//===----------------------------------------------------------------------===//

TEST(ProjectTest, ModuleNameForPath) {
  EXPECT_EQ(Project::moduleNameForPath("app.py"), "app");
  EXPECT_EQ(Project::moduleNameForPath("pkg/views.py"), "pkg.views");
  EXPECT_EQ(Project::moduleNameForPath("pkg/__init__.py"), "pkg");
  EXPECT_EQ(Project::moduleNameForPath("a/b/c.py"), "a.b.c");
}

/// Lexer and parser diagnostics across \p P's modules.
size_t parseDiagnostics(const Project &P) {
  size_t N = 0;
  for (const ModuleInfo &M : P.modules()) {
    AstContext Ctx;
    std::vector<ParseError> Errors;
    parseSource(Ctx, M.Source, &Errors);
    N += Errors.size();
  }
  return N;
}

TEST(ProjectTest, AddModuleParses) {
  Project P("demo");
  const ModuleInfo &M = P.addModule("pkg/app.py", "x = 1\n");
  EXPECT_EQ(M.ModuleName, "pkg.app");
  AstContext Ctx;
  std::vector<ParseError> Errors;
  ModuleNode *Ast = parseSource(Ctx, M.Source, &Errors);
  EXPECT_TRUE(Errors.empty());
  ASSERT_NE(Ast, nullptr);
  EXPECT_EQ(Ast->Body.size(), 1u);
  EXPECT_EQ(parseDiagnostics(P), 0u);
}

TEST(ProjectTest, ErrorsAreCounted) {
  Project P;
  P.addModule("bad.py", "def f(:\n    pass\n");
  EXPECT_GT(parseDiagnostics(P), 0u);
}

//===----------------------------------------------------------------------===//
// ImportMap / qualified names
//===----------------------------------------------------------------------===//

struct ImportFixture {
  Project P;
  const ModuleInfo *M = nullptr;
  AstContext Ctx;
  ImportMap Imports;

  explicit ImportFixture(std::string_view Source,
                         std::string Path = "pkg/app.py") {
    M = &P.addModule(std::move(Path), Source);
    Imports.build(parseSource(Ctx, M->Source), M->ModuleName);
  }
};

TEST(ImportMapTest, PlainImport) {
  ImportFixture F("import os\n");
  EXPECT_EQ(F.Imports.resolveRoot("os").value_or(""), "os");
  EXPECT_FALSE(F.Imports.resolveRoot("sys").has_value());
}

TEST(ImportMapTest, DottedImportBindsRoot) {
  ImportFixture F("import os.path\n");
  EXPECT_EQ(F.Imports.resolveRoot("os").value_or(""), "os");
}

TEST(ImportMapTest, ImportAs) {
  ImportFixture F("import numpy as np\n");
  EXPECT_EQ(F.Imports.resolveRoot("np").value_or(""), "numpy");
}

TEST(ImportMapTest, FromImport) {
  ImportFixture F("from flask import request\n");
  EXPECT_EQ(F.Imports.resolveRoot("request").value_or(""), "flask.request");
}

TEST(ImportMapTest, FromImportAs) {
  ImportFixture F("from werkzeug.utils import secure_filename as sf\n");
  EXPECT_EQ(F.Imports.resolveRoot("sf").value_or(""),
            "werkzeug.utils.secure_filename");
}

TEST(ImportMapTest, RelativeImport) {
  ImportFixture F("from . import models\n", "pkg/app.py");
  EXPECT_EQ(F.Imports.resolveRoot("models").value_or(""), "pkg.models");
}

TEST(ImportMapTest, RelativeImportWithModule) {
  ImportFixture F("from .db import session\n", "pkg/app.py");
  EXPECT_EQ(F.Imports.resolveRoot("session").value_or(""), "pkg.db.session");
}

TEST(ImportMapTest, StarImportIgnored) {
  ImportFixture F("from os import *\n");
  EXPECT_EQ(F.Imports.size(), 0u);
}

TEST(ImportMapTest, ImportInsideTryAndFunction) {
  ImportFixture F("try:\n"
                  "    import ujson as json\n"
                  "except ImportError:\n"
                  "    import json\n"
                  "def f():\n"
                  "    import re\n");
  EXPECT_TRUE(F.Imports.resolveRoot("json").has_value());
  EXPECT_EQ(F.Imports.resolveRoot("re").value_or(""), "re");
}

TEST(ImportMapTest, StripRelativeLevels) {
  EXPECT_EQ(stripRelativeLevels("a.b.c", 1), "a.b");
  EXPECT_EQ(stripRelativeLevels("a.b.c", 2), "a");
  EXPECT_EQ(stripRelativeLevels("a", 3), "");
  EXPECT_EQ(stripRelativeLevels("a.b", 0), "a.b");
}

TEST(QualifiedNamesTest, ResolveDottedName) {
  ImportFixture F("from flask import request\nimport os\n");
  AstContext Ctx;
  std::vector<ParseError> Errors;
  ModuleNode *M = parseSource(Ctx, "request.form\nos.path.join\nplain.x\n",
                              &Errors);
  ASSERT_TRUE(Errors.empty());
  auto ExprAt = [&](size_t I) {
    return cast<ExprStmt>(M->Body[I])->Value;
  };
  EXPECT_EQ(resolveDottedName(F.Imports, ExprAt(0)), "flask.request.form");
  EXPECT_EQ(resolveDottedName(F.Imports, ExprAt(1)), "os.path.join");
  EXPECT_EQ(resolveDottedName(F.Imports, ExprAt(2)), "plain.x");
}

TEST(QualifiedNamesTest, NonDottedShapesYieldEmpty) {
  ImportMap Imports;
  AstContext Ctx;
  ModuleNode *M = parseSource(Ctx, "f().x\nd['k'].y\n", nullptr);
  EXPECT_EQ(resolveDottedName(
                Imports, cast<ExprStmt>(M->Body[0])->Value),
            "");
  EXPECT_EQ(resolveDottedName(
                Imports, cast<ExprStmt>(M->Body[1])->Value),
            "");
}

//===----------------------------------------------------------------------===//
// ModuleScope
//===----------------------------------------------------------------------===//

struct ScopeFixture {
  Project P;
  AstContext Ctx; // Owns the AST the scope points into.
  ModuleScope Scope;

  explicit ScopeFixture(std::string_view Source) {
    const ModuleInfo &M = P.addModule("mod.py", Source);
    std::vector<ParseError> Errors;
    ModuleNode *Ast = parseSource(Ctx, M.Source, &Errors);
    EXPECT_TRUE(Errors.empty());
    Scope.build(Ast, M.ModuleName);
  }
};

TEST(ModuleScopeTest, TopLevelFunctions) {
  ScopeFixture F("def helper(x):\n    return x\n"
                 "def main():\n    pass\n");
  EXPECT_NE(F.Scope.lookupFunction("helper"), nullptr);
  EXPECT_NE(F.Scope.lookupFunction("main"), nullptr);
  EXPECT_EQ(F.Scope.lookupFunction("missing"), nullptr);
}

TEST(ModuleScopeTest, ClassWithMethodsAndBases) {
  ScopeFixture F("from base_driver import ThreadDriver\n"
                 "class ESCPOSDriver(ThreadDriver):\n"
                 "    def status(self, eprint):\n"
                 "        pass\n");
  const ClassInfo *C = F.Scope.lookupClass("ESCPOSDriver");
  ASSERT_NE(C, nullptr);
  ASSERT_EQ(C->BaseQualNames.size(), 1u);
  EXPECT_EQ(C->BaseQualNames[0], "base_driver.ThreadDriver");
  EXPECT_NE(F.Scope.lookupMethod("ESCPOSDriver", "status"), nullptr);
  EXPECT_EQ(F.Scope.lookupMethod("ESCPOSDriver", "missing"), nullptr);
}

TEST(ModuleScopeTest, MethodLookupThroughLocalBase) {
  ScopeFixture F("class Base:\n"
                 "    def shared(self):\n        pass\n"
                 "class Derived(Base):\n"
                 "    def own(self):\n        pass\n");
  EXPECT_NE(F.Scope.lookupMethod("Derived", "own"), nullptr);
  EXPECT_NE(F.Scope.lookupMethod("Derived", "shared"), nullptr)
      << "must search same-module base classes";
  EXPECT_EQ(F.Scope.lookupMethod("Base", "own"), nullptr);
}

TEST(ImportMapTest, DeepRelativeImport) {
  // Two dots from pkg.sub.app climb to package `pkg`.
  ImportFixture F("from ..shared.db import session\n", "pkg/sub/app.py");
  EXPECT_EQ(F.Imports.resolveRoot("session").value_or(""),
            "pkg.shared.db.session");
}

TEST(ImportMapTest, RelativeBeyondRootClamps) {
  ImportFixture F("from ... import models\n", "app.py");
  EXPECT_EQ(F.Imports.resolveRoot("models").value_or(""), "models");
}

TEST(ImportMapTest, LaterBindingWins) {
  ImportFixture F("import json\nimport ujson as json\n");
  EXPECT_EQ(F.Imports.resolveRoot("json").value_or(""), "ujson");
}

TEST(ModuleScopeTest, AccessorsExposeTables) {
  ScopeFixture F("def a():\n    pass\n"
                 "class C:\n"
                 "    def m(self):\n        pass\n");
  EXPECT_EQ(F.Scope.functions().size(), 1u);
  EXPECT_EQ(F.Scope.classes().size(), 1u);
  EXPECT_EQ(F.Scope.moduleName(), "mod");
  const ClassInfo *C = F.Scope.lookupClass("C");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Methods.size(), 1u);
  EXPECT_TRUE(C->BaseQualNames.empty());
}

TEST(ModuleScopeTest, MethodsAreNotModuleFunctions) {
  ScopeFixture F("class C:\n"
                 "    def m(self):\n        pass\n");
  EXPECT_EQ(F.Scope.lookupFunction("m"), nullptr);
}

TEST(ModuleScopeTest, InheritanceCycleDoesNotHang) {
  ScopeFixture F("class A(B):\n    pass\nclass B(A):\n    pass\n");
  EXPECT_EQ(F.Scope.lookupMethod("A", "anything"), nullptr);
}

} // namespace
