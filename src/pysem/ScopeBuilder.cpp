//===- pysem/ScopeBuilder.cpp - Module-level scope information ------------===//

#include "pysem/ScopeBuilder.h"

#include <unordered_set>

using namespace seldon;
using namespace seldon::pysem;
using namespace seldon::pyast;

void ModuleScope::build(const ModuleNode *Module,
                        const std::string &ModuleNameIn) {
  ModuleName = ModuleNameIn;
  Imports.build(Module, ModuleName);

  for (const Stmt *S : Module->Body) {
    if (const auto *F = dyn_cast<FunctionDefStmt>(S)) {
      Functions[std::string(F->Name)] = F;
      continue;
    }
    const auto *C = dyn_cast<ClassDefStmt>(S);
    if (!C)
      continue;
    ClassInfo Info;
    Info.Def = C;
    Info.Name = std::string(C->Name);
    for (const Expr *Base : C->Bases) {
      std::string Qual = resolveDottedName(Imports, Base);
      if (Qual.empty())
        continue;
      Info.BaseQualNames.push_back(Qual);
      // A base with no dots that is not import-bound may be a class defined
      // in this module.
      if (const auto *Name = dyn_cast<NameExpr>(Base))
        if (!Imports.resolveRoot(Name->Id))
          Info.LocalBases.emplace_back(Name->Id);
    }
    for (const Stmt *Member : C->Body)
      if (const auto *M = dyn_cast<FunctionDefStmt>(Member))
        Info.Methods[std::string(M->Name)] = M;
    Classes[std::string(C->Name)] = std::move(Info);
  }
}

const FunctionDefStmt *
ModuleScope::lookupFunction(std::string_view Name) const {
  auto It = Functions.find(Name);
  return It == Functions.end() ? nullptr : It->second;
}

const ClassInfo *ModuleScope::lookupClass(std::string_view Name) const {
  auto It = Classes.find(Name);
  return It == Classes.end() ? nullptr : &It->second;
}

const FunctionDefStmt *
ModuleScope::lookupMethod(std::string_view ClassName,
                          std::string_view MethodName) const {
  // Walk the same-module inheritance chain breadth-first; a visited set
  // guards against inheritance cycles in malformed inputs.
  std::vector<const ClassInfo *> Worklist;
  std::unordered_set<const ClassInfo *> Visited;
  if (const ClassInfo *C = lookupClass(ClassName))
    Worklist.push_back(C);
  for (size_t I = 0; I < Worklist.size(); ++I) {
    const ClassInfo *C = Worklist[I];
    if (!Visited.insert(C).second)
      continue;
    auto It = C->Methods.find(MethodName);
    if (It != C->Methods.end())
      return It->second;
    for (const std::string &Base : C->LocalBases)
      if (const ClassInfo *B = lookupClass(Base))
        Worklist.push_back(B);
  }
  return nullptr;
}
