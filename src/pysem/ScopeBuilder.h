//===- pysem/ScopeBuilder.h - Module-level scope information -----*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collects the per-module declarations that the propagation-graph builder
/// needs: top-level functions (for same-module call inlining, paper §5.2),
/// classes with their methods and resolved base-class names (for the
/// representation backoff of §3.2), and the import map.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PYSEM_SCOPEBUILDER_H
#define SELDON_PYSEM_SCOPEBUILDER_H

#include "pysem/QualifiedNames.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace seldon {
namespace pysem {

/// A class definition with its methods and import-resolved base names.
/// Names view the AST or the scope; the spans view the scope's arrays, so
/// a ClassInfo lives as long as its scope's current build.
struct ClassInfo {
  const pyast::ClassDefStmt *Def = nullptr;
  std::string_view Name;
  /// Base classes as qualified dotted names (e.g. "base_driver.ThreadDriver").
  std::span<const std::string_view> BaseQualNames;
  /// Base classes defined in this same module, by local name.
  std::span<const std::string_view> LocalBases;
  /// The method definitions of the class body, in order.
  std::span<const pyast::FunctionDefStmt *const> Methods;
  /// This class, then its same-module bases breadth-first, each once.
  std::span<const ClassInfo *const> Lineage;

  /// The last method of the class body named \p MethodName, or null.
  const pyast::FunctionDefStmt *method(std::string_view MethodName) const;
};

/// Scope information for one module. A scope reused for module after
/// module (build() starts over) stops allocating once it has held the
/// largest.
class ModuleScope {
public:
  ModuleScope() = default;
  ModuleScope(const ModuleScope &) = delete;
  ModuleScope &operator=(const ModuleScope &) = delete;

  /// Builds the scope for \p Module named \p ModuleName. The scope views
  /// both, so they must outlive its use.
  void build(const pyast::ModuleNode *Module, std::string_view ModuleName);

  /// Top-level function with local name \p Name, or null.
  const pyast::FunctionDefStmt *lookupFunction(std::string_view Name) const;

  /// Class with local name \p Name, or null.
  const ClassInfo *lookupClass(std::string_view Name) const;

  /// Method \p MethodName on class \p ClassName, searching same-module base
  /// classes transitively. Returns null when the method is not found or the
  /// class is unknown.
  const pyast::FunctionDefStmt *lookupMethod(std::string_view ClassName,
                                             std::string_view MethodName) const;
  /// Method \p MethodName on \p Class (may be null) or its same-module bases.
  static const pyast::FunctionDefStmt *
  lookupMethod(const ClassInfo *Class, std::string_view MethodName);

  const ImportMap &imports() const { return Imports; }
  std::string_view moduleName() const { return ModuleName; }
  const FlatMap<std::string_view, const ClassInfo *> &classes() const {
    return Classes;
  }
  const FlatMap<std::string_view, const pyast::FunctionDefStmt *> &
  functions() const {
    return Functions;
  }

private:
  std::string_view ModuleName;
  ImportMap Imports;
  FlatMap<std::string_view, const pyast::FunctionDefStmt *> Functions;
  /// Local name -> the last class defined with it.
  FlatMap<std::string_view, const ClassInfo *> Classes;
  /// Every class definition, and the arrays their spans view: reserved
  /// before they are filled, so the spans never move.
  std::vector<ClassInfo> Infos;
  std::vector<std::string_view> BaseNames;
  std::vector<const pyast::FunctionDefStmt *> MethodDefs;
  std::vector<const ClassInfo *> Lineages;
  std::vector<size_t> LineageEnds; ///< Where each class's lineage ends.
  /// Qualified base names.
  Arena Text;
};

} // namespace pysem
} // namespace seldon

#endif // SELDON_PYSEM_SCOPEBUILDER_H
