//===- pysem/QualifiedNames.cpp - Import-aware name resolution ------------===//

#include "pysem/QualifiedNames.h"

#include "support/StrUtil.h"

using namespace seldon;
using namespace seldon::pysem;
using namespace seldon::pyast;

std::string seldon::pysem::stripRelativeLevels(const std::string &ModuleName,
                                               unsigned Level) {
  if (Level == 0)
    return ModuleName;
  std::vector<std::string> Parts = splitString(ModuleName, '.');
  // One dot refers to the current package, i.e. drops the module component.
  size_t Drop = std::min<size_t>(Level, Parts.size());
  Parts.resize(Parts.size() - Drop);
  return joinStrings(Parts, ".");
}

void ImportMap::bind(std::string LocalName, std::string QualifiedPrefix) {
  Bindings[std::move(LocalName)] = std::move(QualifiedPrefix);
}

std::optional<std::string>
ImportMap::resolveRoot(std::string_view LocalName) const {
  auto It = Bindings.find(LocalName);
  if (It == Bindings.end())
    return std::nullopt;
  return It->second;
}

void ImportMap::build(const ModuleNode *Module, const std::string &ModuleName) {
  scanStatements(Module->Body, ModuleName);
}

void ImportMap::scanStatements(std::span<Stmt *const> Body,
                               const std::string &ModuleName) {
  for (const Stmt *S : Body) {
    switch (S->kind()) {
    case NodeKind::Import: {
      for (const ImportAlias &A : cast<ImportStmt>(S)->Names) {
        if (A.Module.empty())
          continue;
        if (!A.AsName.empty()) {
          bind(std::string(A.AsName), std::string(A.Module));
        } else {
          // `import os.path` binds the name `os`; deeper components resolve
          // through attribute chains.
          std::string Root = splitString(A.Module, '.').front();
          bind(Root, Root);
        }
      }
      break;
    }
    case NodeKind::ImportFrom: {
      const auto *I = cast<ImportFromStmt>(S);
      std::string Base = I->Level > 0
                             ? stripRelativeLevels(ModuleName, I->Level)
                             : std::string();
      if (!I->Module.empty()) {
        if (!Base.empty())
          Base += '.';
        Base += I->Module;
      }
      for (const ImportAlias &A : I->Names) {
        if (A.Module == "*")
          continue; // Star imports bind unknown names.
        std::string Qualified = Base.empty()
                                    ? std::string(A.Module)
                                    : Base + "." + std::string(A.Module);
        bind(std::string(A.AsName.empty() ? A.Module : A.AsName),
             std::move(Qualified));
      }
      break;
    }
    case NodeKind::If: {
      const auto *I = cast<IfStmt>(S);
      scanStatements(I->Then, ModuleName);
      scanStatements(I->Else, ModuleName);
      break;
    }
    case NodeKind::Try: {
      // `try: import fast_json as json / except ImportError: import json`
      // is a common idiom; take bindings from all branches (later wins).
      const auto *T = cast<TryStmt>(S);
      scanStatements(T->Body, ModuleName);
      for (const ExceptHandler &H : T->Handlers)
        scanStatements(H.Body, ModuleName);
      scanStatements(T->OrElse, ModuleName);
      scanStatements(T->Finally, ModuleName);
      break;
    }
    case NodeKind::While:
      scanStatements(cast<WhileStmt>(S)->Body, ModuleName);
      break;
    case NodeKind::For:
      scanStatements(cast<ForStmt>(S)->Body, ModuleName);
      break;
    case NodeKind::With:
      scanStatements(cast<WithStmt>(S)->Body, ModuleName);
      break;
    case NodeKind::FunctionDef:
      scanStatements(cast<FunctionDefStmt>(S)->Body, ModuleName);
      break;
    case NodeKind::ClassDef:
      scanStatements(cast<ClassDefStmt>(S)->Body, ModuleName);
      break;
    default:
      break;
    }
  }
}

std::string seldon::pysem::resolveDottedName(const ImportMap &Imports,
                                             const Expr *E) {
  // Collect the attribute chain bottom-up, then resolve the root.
  std::vector<std::string_view> Attrs;
  const Expr *Cur = E;
  while (const auto *A = dyn_cast<AttributeExpr>(Cur)) {
    Attrs.push_back(A->Attr);
    Cur = A->Value;
  }
  const auto *Root = dyn_cast<NameExpr>(Cur);
  if (!Root)
    return std::string();

  std::string Out;
  if (std::optional<std::string> Resolved = Imports.resolveRoot(Root->Id))
    Out = *Resolved;
  else
    Out = std::string(Root->Id);
  for (auto It = Attrs.rbegin(); It != Attrs.rend(); ++It) {
    Out += '.';
    Out += *It;
  }
  return Out;
}
