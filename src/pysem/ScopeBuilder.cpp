//===- pysem/ScopeBuilder.cpp - Module-level scope information ------------===//

#include "pysem/ScopeBuilder.h"

#include <algorithm>

using namespace seldon;
using namespace seldon::pysem;
using namespace seldon::pyast;

const FunctionDefStmt *ClassInfo::method(std::string_view MethodName) const {
  for (auto It = Methods.rbegin(); It != Methods.rend(); ++It)
    if ((*It)->Name == MethodName)
      return *It;
  return nullptr;
}

void ModuleScope::build(const ModuleNode *Module,
                        std::string_view ModuleNameIn) {
  ModuleName = ModuleNameIn;
  Imports.build(Module, ModuleName);
  Functions.clear();
  Classes.clear();
  Infos.clear();
  BaseNames.clear();
  MethodDefs.clear();
  Lineages.clear();
  Text.reset();

  // Size the arrays first, so the spans taken while filling them stay put.
  size_t NumClasses = 0, NumBases = 0, NumMethods = 0;
  for (const Stmt *S : Module->Body)
    if (const auto *C = dyn_cast<ClassDefStmt>(S)) {
      ++NumClasses;
      NumBases += C->Bases.size();
      for (const Stmt *Member : C->Body)
        NumMethods += isa<FunctionDefStmt>(Member);
    }
  Infos.reserve(NumClasses);
  BaseNames.reserve(2 * NumBases);
  MethodDefs.reserve(NumMethods);
  auto SpanFrom = [](const auto &Items, size_t Begin) {
    return std::span(Items.data() + Begin, Items.size() - Begin);
  };

  for (const Stmt *S : Module->Body) {
    if (const auto *F = dyn_cast<FunctionDefStmt>(S)) {
      Functions[F->Name] = F;
      continue;
    }
    const auto *C = dyn_cast<ClassDefStmt>(S);
    if (!C)
      continue;
    ClassInfo &Info = Infos.emplace_back();
    Info.Def = C;
    Info.Name = C->Name;
    size_t Begin = BaseNames.size();
    for (const Expr *Base : C->Bases) {
      std::string Qual = resolveDottedName(Imports, Base);
      if (!Qual.empty())
        BaseNames.push_back(Text.copyText(Qual));
    }
    Info.BaseQualNames = SpanFrom(BaseNames, Begin);
    // A base with no dots that is not import-bound may be a class defined
    // in this module.
    Begin = BaseNames.size();
    for (const Expr *Base : C->Bases)
      if (const auto *Name = dyn_cast<NameExpr>(Base))
        if (!Name->Id.empty() && !Imports.resolveRoot(Name->Id))
          BaseNames.push_back(Name->Id);
    Info.LocalBases = SpanFrom(BaseNames, Begin);
    Begin = MethodDefs.size();
    for (const Stmt *Member : C->Body)
      if (const auto *M = dyn_cast<FunctionDefStmt>(Member))
        MethodDefs.push_back(M);
    Info.Methods = SpanFrom(MethodDefs, Begin);
    Classes[C->Name] = &Info;
  }

  // Each class's lineage: the same-module inheritance chain walked
  // breadth-first, skipping a class already reached (so an inheritance
  // cycle in malformed input ends). Lineages only grows here, so the spans
  // are taken once it is complete.
  std::vector<size_t> &Ends = LineageEnds;
  Ends.clear();
  for (const ClassInfo &Info : Infos) {
    const size_t Begin = Lineages.size();
    Lineages.push_back(&Info);
    for (size_t I = Begin; I < Lineages.size(); ++I)
      for (std::string_view Base : Lineages[I]->LocalBases)
        if (const ClassInfo *B = lookupClass(Base))
          if (std::find(Lineages.begin() + Begin, Lineages.end(), B) ==
              Lineages.end())
            Lineages.push_back(B);
    Ends.push_back(Lineages.size());
  }
  for (size_t I = 0, Begin = 0; I < Infos.size(); Begin = Ends[I++])
    Infos[I].Lineage = std::span(Lineages.data() + Begin, Ends[I] - Begin);
}

const FunctionDefStmt *
ModuleScope::lookupFunction(std::string_view Name) const {
  const FunctionDefStmt *const *F = Functions.find(Name);
  return F ? *F : nullptr;
}

const ClassInfo *ModuleScope::lookupClass(std::string_view Name) const {
  const ClassInfo *const *C = Classes.find(Name);
  return C ? *C : nullptr;
}

const FunctionDefStmt *
ModuleScope::lookupMethod(const ClassInfo *Class,
                          std::string_view MethodName) {
  if (Class)
    for (const ClassInfo *C : Class->Lineage)
      if (const FunctionDefStmt *M = C->method(MethodName))
        return M;
  return nullptr;
}

const FunctionDefStmt *
ModuleScope::lookupMethod(std::string_view ClassName,
                          std::string_view MethodName) const {
  return lookupMethod(lookupClass(ClassName), MethodName);
}
