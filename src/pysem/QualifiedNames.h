//===- pysem/QualifiedNames.h - Import-aware name resolution -----*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps local names to fully qualified dotted names through the module's
/// imports. This underlies the event representations Rep(v) of paper §3.2:
/// `from werkzeug import secure_filename as sf` makes a call `sf(x)` resolve
/// to the representation root `werkzeug.secure_filename`.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PYSEM_QUALIFIEDNAMES_H
#define SELDON_PYSEM_QUALIFIEDNAMES_H

#include "pyast/Ast.h"
#include "support/StrUtil.h"

#include <optional>
#include <string>
#include <string_view>

namespace seldon {
namespace pysem {

/// The import bindings of one module: local alias -> fully qualified prefix.
class ImportMap {
public:
  /// Scans all import statements (at any nesting depth) of \p Module, which
  /// has the dotted name \p ModuleName (used for relative imports).
  void build(const pyast::ModuleNode *Module, const std::string &ModuleName);

  /// Adds one binding explicitly (used by tests and the inliner).
  void bind(std::string LocalName, std::string QualifiedPrefix);

  /// Resolves the root identifier of a dotted expression: returns the
  /// qualified prefix bound to \p LocalName, or std::nullopt if the name is
  /// not import-bound.
  std::optional<std::string> resolveRoot(std::string_view LocalName) const;

  size_t size() const { return Bindings.size(); }

private:
  void scanStatements(std::span<pyast::Stmt *const> Body,
                      const std::string &ModuleName);

  StringMap<std::string> Bindings;
};

/// Renders \p E as a dotted path if it is a pure chain of names and
/// attribute loads (e.g. `os.path.join`), resolving the root through
/// \p Imports. Returns an empty string for any other expression shape.
std::string resolveDottedName(const ImportMap &Imports, const pyast::Expr *E);

/// Computes the package prefix for a relative import of \p Level dots
/// inside \p ModuleName: stripRelative("a.b.c", 1) == "a.b".
std::string stripRelativeLevels(const std::string &ModuleName, unsigned Level);

} // namespace pysem
} // namespace seldon

#endif // SELDON_PYSEM_QUALIFIEDNAMES_H
