//===- pysem/QualifiedNames.cpp - Import-aware name resolution ------------===//

#include "pysem/QualifiedNames.h"

using namespace seldon;
using namespace seldon::pysem;
using namespace seldon::pyast;

std::string_view seldon::pysem::stripRelativeLevels(std::string_view ModuleName,
                                                    unsigned Level) {
  // One dot refers to the current package, i.e. drops the module component.
  for (unsigned I = 0; I < Level && !ModuleName.empty(); ++I) {
    size_t Dot = ModuleName.rfind('.');
    ModuleName = Dot == std::string_view::npos ? std::string_view()
                                               : ModuleName.substr(0, Dot);
  }
  return ModuleName;
}

void ImportMap::bind(std::string_view LocalName,
                     std::string_view QualifiedPrefix) {
  std::string_view Local = Text.copyText(LocalName);
  Bindings[Local] = Text.copyText(QualifiedPrefix);
}

std::optional<std::string_view>
ImportMap::resolveRoot(std::string_view LocalName) const {
  if (const std::string_view *Qual = Bindings.find(LocalName))
    return *Qual;
  return std::nullopt;
}

void ImportMap::build(const ModuleNode *Module, std::string_view ModuleName) {
  Text.reset();
  Bindings.clear();
  scanStatements(Module->Body, ModuleName);
}

void ImportMap::scanStatements(std::span<Stmt *const> Body,
                               std::string_view ModuleName) {
  for (const Stmt *S : Body) {
    switch (S->kind()) {
    case NodeKind::Import: {
      for (const ImportAlias &A : cast<ImportStmt>(S)->Names) {
        if (A.Module.empty())
          continue;
        if (!A.AsName.empty()) {
          bind(A.AsName, A.Module);
        } else {
          // `import os.path` binds the name `os`; deeper components resolve
          // through attribute chains.
          std::string_view Root = A.Module.substr(0, A.Module.find('.'));
          bind(Root, Root);
        }
      }
      break;
    }
    case NodeKind::ImportFrom: {
      const auto *I = cast<ImportFromStmt>(S);
      Scratch.assign(I->Level > 0 ? stripRelativeLevels(ModuleName, I->Level)
                                  : std::string_view());
      if (!I->Module.empty()) {
        if (!Scratch.empty())
          Scratch += '.';
        Scratch += I->Module;
      }
      const size_t BaseSize = Scratch.size();
      for (const ImportAlias &A : I->Names) {
        if (A.Module == "*")
          continue; // Star imports bind unknown names.
        Scratch.resize(BaseSize);
        if (BaseSize)
          Scratch += '.';
        Scratch += A.Module;
        bind(A.AsName.empty() ? A.Module : A.AsName, Scratch);
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
  // The AST links a chain from its outermost attribute in, so the chain is
  // sized first and its attributes are written back to front.
  const Expr *Root = E;
  size_t ChainSize = 0;
  while (const auto *A = dyn_cast<AttributeExpr>(Root)) {
    ChainSize += 1 + A->Attr.size();
    Root = A->Value;
  }
  const auto *Name = dyn_cast<NameExpr>(Root);
  if (!Name)
    return std::string();
  std::string Out(Imports.resolveRoot(Name->Id).value_or(Name->Id));
  size_t At = Out.size() + ChainSize;
  Out.resize(At);
  for (const Expr *Cur = E; Cur != Root;
       Cur = cast<AttributeExpr>(Cur)->Value) {
    std::string_view Attr = cast<AttributeExpr>(Cur)->Attr;
    At -= Attr.size();
    Attr.copy(Out.data() + At, Attr.size());
    Out[--At] = '.';
  }
  return Out;
}
