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

#include <string>
#include <unordered_map>
#include <vector>

namespace seldon {
namespace pysem {

/// A class definition with its methods and import-resolved base names.
struct ClassInfo {
  const pyast::ClassDefStmt *Def = nullptr;
  std::string Name;
  /// Base classes as qualified dotted names (e.g. "base_driver.ThreadDriver").
  std::vector<std::string> BaseQualNames;
  /// Base classes defined in this same module, by local name.
  std::vector<std::string> LocalBases;
  StringMap<const pyast::FunctionDefStmt *> Methods;
};

/// Scope information for one module.
class ModuleScope {
public:
  /// Builds the scope for \p Module named \p ModuleName.
  void build(const pyast::ModuleNode *Module, const std::string &ModuleName);

  /// Top-level function with local name \p Name, or null.
  const pyast::FunctionDefStmt *lookupFunction(std::string_view Name) const;

  /// Class with local name \p Name, or null.
  const ClassInfo *lookupClass(std::string_view Name) const;

  /// Method \p MethodName on class \p ClassName, searching same-module base
  /// classes transitively. Returns null when the method is not found or the
  /// class is unknown.
  const pyast::FunctionDefStmt *lookupMethod(std::string_view ClassName,
                                             std::string_view MethodName) const;

  const ImportMap &imports() const { return Imports; }
  const std::string &moduleName() const { return ModuleName; }
  const StringMap<ClassInfo> &classes() const { return Classes; }
  const StringMap<const pyast::FunctionDefStmt *> &functions() const {
    return Functions;
  }

private:
  std::string ModuleName;
  ImportMap Imports;
  StringMap<const pyast::FunctionDefStmt *> Functions;
  StringMap<ClassInfo> Classes;
};

} // namespace pysem
} // namespace seldon

#endif // SELDON_PYSEM_SCOPEBUILDER_H
