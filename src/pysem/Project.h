//===- pysem/Project.h - The source files of one repository ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Project holds the sources of all files of one repository, each under
/// its repository-relative path and dotted module name. It holds no ASTs:
/// the propagation graph builder lexes and parses a module when it builds
/// that module's graph (paper §3: per-program graphs are disjoint) and
/// frees the AST once the graph exists, so a project whose graph comes
/// from the graph cache is never parsed at all.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PYSEM_PROJECT_H
#define SELDON_PYSEM_PROJECT_H

#include <string>
#include <string_view>
#include <vector>

namespace seldon {
namespace pysem {

/// One source file of a project.
struct ModuleInfo {
  std::string Path;       ///< Repository-relative path, e.g. "app/views.py".
  std::string ModuleName; ///< Dotted module name, e.g. "app.views".
  std::string Source;     ///< The original text (parsed by the graph build,
                          ///< kept for report quoting and external
                          ///< validation).
};

/// The source files of one repository, in the order they were added.
class Project {
public:
  explicit Project(std::string Name = "project") : Name(std::move(Name)) {}

  /// Registers \p Source under \p Path. The module name is derived from
  /// the path ("a/b.py" -> "a.b"; "__init__.py" maps to the package
  /// name). Returns the stored module.
  const ModuleInfo &addModule(std::string Path, std::string_view Source);

  const std::vector<ModuleInfo> &modules() const { return Modules; }
  const std::string &name() const { return Name; }

  /// Derives the dotted module name for a repository-relative path.
  static std::string moduleNameForPath(std::string_view Path);

private:
  std::string Name;
  std::vector<ModuleInfo> Modules;
};

} // namespace pysem
} // namespace seldon

#endif // SELDON_PYSEM_PROJECT_H
