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
#include "support/Arena.h"
#include "support/FlatMap.h"

#include <optional>
#include <string>
#include <string_view>

namespace seldon {
namespace pysem {

/// The import bindings of one module: local alias -> fully qualified prefix.
/// Both sides live in the map's own arena, so a map reused for module
/// after module (build() starts over) stops allocating once it has held
/// the largest.
class ImportMap {
public:
  ImportMap() = default;
  ImportMap(const ImportMap &) = delete;
  ImportMap &operator=(const ImportMap &) = delete;

  /// Replaces the bindings with those of every import statement (at any
  /// nesting depth) of \p Module, which has the dotted name \p ModuleName
  /// (used for relative imports).
  void build(const pyast::ModuleNode *Module, std::string_view ModuleName);

  /// Adds one binding explicitly; a later binding of a name wins.
  void bind(std::string_view LocalName, std::string_view QualifiedPrefix);

  /// Resolves the root identifier of a dotted expression: returns the
  /// qualified prefix bound to \p LocalName, or std::nullopt if the name is
  /// not import-bound. The view lives as long as the map's bindings.
  std::optional<std::string_view> resolveRoot(std::string_view LocalName) const;

  size_t size() const { return Bindings.size(); }

private:
  void scanStatements(std::span<pyast::Stmt *const> Body,
                      std::string_view ModuleName);

  Arena Text;
  FlatMap<std::string_view, std::string_view> Bindings;
  /// A from-import's qualified name while it is assembled.
  std::string Scratch;
};

/// Renders \p E as a dotted path if it is a pure chain of names and
/// attribute loads (e.g. `os.path.join`), resolving the root through
/// \p Imports. Returns an empty string for any other expression shape.
std::string resolveDottedName(const ImportMap &Imports, const pyast::Expr *E);

/// The package prefix for a relative import of \p Level dots inside
/// \p ModuleName: stripRelativeLevels("a.b.c", 1) == "a.b". The result
/// views \p ModuleName.
std::string_view stripRelativeLevels(std::string_view ModuleName,
                                     unsigned Level);

} // namespace pysem
} // namespace seldon

#endif // SELDON_PYSEM_QUALIFIEDNAMES_H
