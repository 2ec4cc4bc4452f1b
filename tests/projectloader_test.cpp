//===- tests/projectloader_test.cpp - Tests for filesystem loading --------===//

#include "propgraph/GraphBuilder.h"
#include "pysem/ProjectLoader.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace fs = std::filesystem;

using namespace seldon;
using namespace seldon::pysem;

namespace {

/// Creates a throwaway directory tree, removed on destruction.
class TempTree {
public:
  TempTree() {
    Root = fs::temp_directory_path() /
           ("seldon_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(Counter++));
    fs::create_directories(Root);
  }
  ~TempTree() {
    std::error_code Ec;
    fs::remove_all(Root, Ec);
  }

  void write(const std::string &Relative, const std::string &Content) {
    fs::path Path = Root / Relative;
    fs::create_directories(Path.parent_path());
    std::ofstream Out(Path);
    Out << Content;
  }

  std::string path() const { return Root.string(); }

private:
  fs::path Root;
  static int Counter;
};

int TempTree::Counter = 0;

TEST(ProjectLoaderTest, LoadsPyFilesRecursively) {
  TempTree Tree;
  Tree.write("app.py", "x = 1\n");
  Tree.write("pkg/views.py", "y = 2\n");
  Tree.write("pkg/__init__.py", "");
  Tree.write("README.md", "not python\n");

  auto Proj = loadProjectFromDir(Tree.path());
  ASSERT_TRUE(Proj.has_value());
  EXPECT_EQ(Proj->modules().size(), 3u);
  bool FoundViews = false;
  for (const ModuleInfo &M : Proj->modules()) {
    if (M.Path == "pkg/views.py") {
      FoundViews = true;
      EXPECT_EQ(M.ModuleName, "pkg.views");
    }
    EXPECT_NE(M.Path, "README.md");
  }
  EXPECT_TRUE(FoundViews);
}

TEST(ProjectLoaderTest, DeterministicModuleOrder) {
  TempTree Tree;
  Tree.write("b.py", "x = 1\n");
  Tree.write("a.py", "x = 1\n");
  Tree.write("c.py", "x = 1\n");
  auto Proj = loadProjectFromDir(Tree.path());
  ASSERT_TRUE(Proj.has_value());
  ASSERT_EQ(Proj->modules().size(), 3u);
  EXPECT_EQ(Proj->modules()[0].Path, "a.py");
  EXPECT_EQ(Proj->modules()[1].Path, "b.py");
  EXPECT_EQ(Proj->modules()[2].Path, "c.py");
}

TEST(ProjectLoaderTest, SkipsConfiguredDirectories) {
  TempTree Tree;
  Tree.write("app.py", "x = 1\n");
  Tree.write(".git/hook.py", "x = 1\n");
  Tree.write("__pycache__/cached.py", "x = 1\n");
  Tree.write("venv/lib/site.py", "x = 1\n");
  auto Proj = loadProjectFromDir(Tree.path());
  ASSERT_TRUE(Proj.has_value());
  EXPECT_EQ(Proj->modules().size(), 1u);
}

TEST(ProjectLoaderTest, SkipsOversizedFiles) {
  TempTree Tree;
  Tree.write("small.py", "x = 1\n");
  Tree.write("big.py", std::string(4096, '#') + "\n");
  LoadOptions Opts;
  Opts.MaxFileBytes = 1024;
  auto Proj = loadProjectFromDir(Tree.path(), Opts);
  ASSERT_TRUE(Proj.has_value());
  EXPECT_EQ(Proj->modules().size(), 1u);
  EXPECT_EQ(Proj->modules()[0].Path, "small.py");
}

TEST(ProjectLoaderTest, MissingDirectoryReturnsNullopt) {
  EXPECT_FALSE(loadProjectFromDir("/nonexistent/definitely/missing")
                   .has_value());
}

TEST(ProjectLoaderTest, ProjectNamedAfterDirectory) {
  TempTree Tree;
  Tree.write("app.py", "x = 1\n");
  auto Proj = loadProjectFromDir(Tree.path());
  ASSERT_TRUE(Proj.has_value());
  EXPECT_FALSE(Proj->name().empty());
  EXPECT_NE(Proj->name(), "project");
}

TEST(ProjectLoaderTest, ParseErrorsSurfaceOnModules) {
  TempTree Tree;
  Tree.write("bad.py", "def f(:\n    pass\n");
  auto Proj = loadProjectFromDir(Tree.path());
  ASSERT_TRUE(Proj.has_value());
  std::vector<pyast::ParseError> Errors;
  propgraph::buildProjectGraph(*Proj, propgraph::BuildOptions(), &Errors);
  EXPECT_GT(Errors.size(), 0u);
}

TEST(ProjectLoaderTest, SymlinkedFileKeepsItsOwnPath) {
  // proj/pkg/views.py -> ../../other/helper.py: the module is named after
  // the link inside the project, not after the target outside it.
  TempTree Tree;
  Tree.write("other/helper.py", "x = 1\n");
  Tree.write("proj/pkg/__init__.py", "");
  fs::create_symlink("../../other/helper.py",
                     fs::path(Tree.path()) / "proj/pkg/views.py");
  auto Proj = loadProjectFromDir(Tree.path() + "/proj");
  ASSERT_TRUE(Proj.has_value());
  const ModuleInfo *Views = nullptr;
  for (const ModuleInfo &M : Proj->modules())
    if (M.Path == "pkg/views.py")
      Views = &M;
  ASSERT_NE(Views, nullptr);
  EXPECT_EQ(Views->ModuleName, "pkg.views");
  EXPECT_EQ(Views->Source, "x = 1\n");
  for (const ModuleInfo &M : Proj->modules())
    EXPECT_EQ(M.Path.find(".."), std::string::npos) << M.Path;
}

TEST(ReadFileTest, ReadsAndFails) {
  TempTree Tree;
  Tree.write("data.txt", "hello\nworld\n");
  io::IOResult<std::string> Content = io::readFile(Tree.path() + "/data.txt");
  ASSERT_TRUE(Content.ok()) << Content.Error;
  EXPECT_EQ(Content.Value, "hello\nworld\n");
  EXPECT_FALSE(io::readFile(Tree.path() + "/missing.txt").ok());
}

} // namespace
