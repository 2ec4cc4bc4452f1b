//===- propgraph/GraphBuilder.cpp - AST -> propagation graph --------------===//

#include "propgraph/GraphBuilder.h"

#include "pointsto/AndersenSolver.h"
#include "pysem/ScopeBuilder.h"
#include "support/Metrics.h"
#include "support/StrUtil.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace seldon;
using namespace seldon::propgraph;
using namespace seldon::pyast;

namespace {

constexpr pointsto::VarId InvalidPtVar = ~static_cast<pointsto::VarId>(0);

/// The abstract value of an expression during the dataflow walk.
struct Value {
  /// Events whose information flows out of the expression.
  std::vector<EventId> Events;
  /// Symbolic path options (most -> least specific) used to render event
  /// representations; empty when the expression has no renderable path.
  std::vector<std::string> Paths;
  /// True while the path is a pure import-rooted attribute chain (a module
  /// or class path, not data) — such prefixes do not form events.
  bool PureModulePath = false;
  /// Name of the same-module class this value is an instance of (set for
  /// constructor-call results and `self`), enabling method inlining.
  std::string InstanceClass;
  /// Points-to variable holding the objects this value may denote.
  pointsto::VarId PtVar = InvalidPtVar;
};

/// A variable environment. Function environments start as copies of the
/// module environment (free names resolve to module globals).
using Env = std::unordered_map<std::string, Value>;

/// Summary of a processed function definition.
struct FunctionSummary {
  std::vector<EventId> ParamEvents; // Parallel to Def->Params.
  std::vector<EventId> ReturnEvents;
  bool InProgress = false;
  bool Processed = false;
};

/// Deferred field accesses resolved against the points-to solution.
struct FieldStore {
  pointsto::VarId Base;
  std::string Field;
  std::vector<EventId> Events;
};
struct FieldLoad {
  pointsto::VarId Base;
  std::string Field;
  EventId Target;
};

/// What one module build exports for project-level linking
/// (BuildOptions::CrossModuleFlows): its top-level functions and its calls
/// into other modules. Event ids refer to the module's own graph and are
/// offset when the graphs are appended.
struct ModuleArtifacts {
  struct ExportedFn {
    std::vector<std::pair<std::string, EventId>> Params; // (name, event)
    std::vector<EventId> Returns;
  };
  /// Qualified function name ("pkg.utils.scrub") -> interface events.
  std::unordered_map<std::string, ExportedFn> Exports;

  struct CallSite {
    std::string Target;        ///< Qualified callee name (no "()").
    std::string CallerPackage; ///< For implicit-relative lookup.
    EventId Call;
    std::vector<std::vector<EventId>> Args;
    std::vector<std::pair<std::string, std::vector<EventId>>> Kwargs;
  };
  std::vector<CallSite> Calls;

  /// Shifts every event id by \p Offset (after PropagationGraph::append).
  void offsetIds(EventId Offset) {
    for (auto &[Name, Fn] : Exports) {
      for (auto &[ParamName, Id] : Fn.Params)
        Id += Offset;
      for (EventId &Id : Fn.Returns)
        Id += Offset;
    }
    for (CallSite &C : Calls) {
      C.Call += Offset;
      for (auto &Events : C.Args)
        for (EventId &Id : Events)
          Id += Offset;
      for (auto &[Kw, Events] : C.Kwargs)
        for (EventId &Id : Events)
          Id += Offset;
    }
  }
};

/// Per-module graph construction state.
class ModuleGraphBuilder {
public:
  /// \p Ast is \p Module's parsed source; it must outlive the builder.
  ModuleGraphBuilder(const pysem::ModuleInfo &Module, const ModuleNode *Ast,
                     const BuildOptions &Opts,
                     ModuleArtifacts *Artifacts = nullptr)
      : Module(Module), Ast(Ast), Opts(Opts), Artifacts(Artifacts) {
    Scope.build(Ast, Module.ModuleName);
    FileIdx = Graph.addFile(Module.Path);
  }

  PropagationGraph build() {
    // Pass 1: module-level statements; function bodies are processed on
    // demand when called, so module-level flow reaches them.
    runStmts(Ast->Body, ModuleEnv, /*FnCtx=*/nullptr, /*Depth=*/0);

    // Pass 2: functions never called from module level still contribute
    // events and intraprocedural flow.
    processAllRemaining(Ast->Body, /*EnclosingClass=*/nullptr);

    // Resolve alias-borne field flows against the points-to solution.
    if (Opts.UsePointsTo)
      connectFieldFlows();
    // The module is complete: its adjacency is built once.
    Graph.addEdges(Edges);
    return std::move(Graph);
  }

private:
  //===--------------------------------------------------------------------===//
  // Event creation helpers
  //===--------------------------------------------------------------------===//

  EventId makeEvent(EventKind Kind, const std::vector<std::string> &Reps,
                    SourceLoc Loc) {
    assert(!Reps.empty());
    RoleMask Candidates;
    if (Kind == EventKind::Call)
      // In argument-position mode the per-argument events own the sink
      // role exclusively; the call itself can still be a source/sanitizer
      // (its return value).
      Candidates = Opts.ArgPositionReps ? (SourceMask | SanitizerMask)
                                        : AllRolesMask;
    else if (Kind == EventKind::CallArgument)
      Candidates = SinkMask;
    else
      Candidates = SourceMask;
    RepViews.assign(Reps.begin(), Reps.end());
    return Graph.addEvent(Kind, Candidates, FileIdx, Loc, RepViews);
  }

  /// Records the flow edge \p From -> \p To; build() adds the module's
  /// edges to the graph at once.
  void addEdge(EventId From, EventId To) { Edges.push_back({From, To}); }

  void flowInto(const std::vector<EventId> &Sources, EventId Target) {
    for (EventId S : Sources)
      addEdge(S, Target);
  }

  /// Appends \p Link (".attr", "['k']", or "()") to every path option.
  static std::vector<std::string>
  extendPaths(const std::vector<std::string> &Paths, const std::string &Link) {
    std::vector<std::string> Out;
    Out.reserve(Paths.size());
    for (const std::string &P : Paths)
      Out.push_back(P + Link);
    return Out;
  }

  /// Path options for a value with no renderable path.
  static std::vector<std::string> unknownPath(const std::string &Link) {
    return {"<unknown>" + Link};
  }

  /// Root path options for parameter \p ParamName of function \p Fn
  /// defined in \p Class (may be null). Ordered most -> least specific:
  ///   Class::fn(param p), QualifiedBase::fn(param p), ..., fn(param p), p
  std::vector<std::string> paramRootPaths(const FunctionDefStmt *Fn,
                                          const pysem::ClassInfo *Class,
                                          const std::string &ParamName,
                                          bool IncludeBareName) const {
    std::vector<std::string> Out;
    std::string Suffix = Fn->Name + "(param " + ParamName + ")";
    if (Class) {
      Out.push_back(Class->Name + "::" + Suffix);
      for (const std::string &Base : Class->BaseQualNames)
        Out.push_back(Base + "::" + Suffix);
    }
    Out.push_back(Suffix);
    if (IncludeBareName)
      Out.push_back(ParamName);
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Points-to plumbing
  //===--------------------------------------------------------------------===//

  pointsto::VarId freshPtVar(const char *Tag) {
    return PT.makeVar(std::string(Tag) + "#" + std::to_string(PtTemp++));
  }

  /// The shared abstract instance object of a same-module class.
  pointsto::ObjId classInstanceObj(const std::string &ClassName) {
    auto It = ClassInstanceObjs.find(ClassName);
    if (It != ClassInstanceObjs.end())
      return It->second;
    pointsto::ObjId O = PT.makeObj("instance:" + ClassName);
    ClassInstanceObjs.emplace(ClassName, O);
    return O;
  }

  pointsto::VarId ptVarOf(Value &V, const char *Tag) {
    if (V.PtVar == InvalidPtVar)
      V.PtVar = freshPtVar(Tag);
    return V.PtVar;
  }

  void connectFieldFlows() {
    PT.solve();
    for (const FieldLoad &L : Loads) {
      for (const FieldStore &S : Stores) {
        if (S.Field != L.Field)
          continue;
        if (!PT.mayAlias(S.Base, L.Base))
          continue;
        flowInto(S.Events, L.Target);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Function processing
  //===--------------------------------------------------------------------===//

  /// Processes \p Fn (once), creating its parameter events and recording
  /// its return events. \p Class is the enclosing class for methods.
  FunctionSummary &processFunction(const FunctionDefStmt *Fn,
                                   const pysem::ClassInfo *Class, int Depth) {
    FunctionSummary &Summary = Summaries[Fn];
    if (Summary.Processed || Summary.InProgress)
      return Summary;
    Summary.InProgress = true;

    // Function scope: module globals visible, parameters bound.
    Env FnEnv = ModuleEnv;
    for (const Param &P : Fn->Params) {
      std::vector<std::string> EventReps =
          paramRootPaths(Fn, Class, P.Name, /*IncludeBareName=*/false);
      EventId PE = makeEvent(EventKind::FormalParam, EventReps, P.Loc);
      Summary.ParamEvents.push_back(PE);

      Value V;
      V.Events.push_back(PE);
      V.Paths = paramRootPaths(Fn, Class, P.Name, /*IncludeBareName=*/true);
      V.PtVar = freshPtVar("param");
      if (Class && &P == &Fn->Params.front()) {
        // Every method's `self` denotes the same abstract instance, so
        // fields written in one method are visible in another.
        V.InstanceClass = Class->Name;
        PT.addAlloc(V.PtVar, classInstanceObj(Class->Name));
      } else {
        PT.addAlloc(V.PtVar, PT.makeObj("param:" + EventReps.front()));
      }
      FnEnv[P.Name] = std::move(V);

      if (P.Default)
        evalExpr(P.Default, FnEnv, nullptr, Depth);
    }

    FnContext Ctx;
    Ctx.Summary = &Summary;
    runStmts(Fn->Body, FnEnv, &Ctx, Depth);

    // Decorators observe the function's results (e.g. a route handler's
    // response is consumed by the framework).
    for (const Expr *Dec : Fn->Decorators) {
      Value DV = evalExpr(Dec, ModuleEnv, nullptr, Depth);
      if (DV.Events.empty())
        continue;
      for (EventId R : Summary.ReturnEvents)
        addEdge(R, DV.Events.front());
    }

    Summary.InProgress = false;
    Summary.Processed = true;

    // Export top-level functions for project-level linking.
    if (Artifacts && !Class) {
      ModuleArtifacts::ExportedFn Exported;
      for (size_t I = 0; I < Fn->Params.size(); ++I)
        Exported.Params.emplace_back(Fn->Params[I].Name,
                                     Summary.ParamEvents[I]);
      Exported.Returns = Summary.ReturnEvents;
      Artifacts->Exports[Module.ModuleName + "." + Fn->Name] =
          std::move(Exported);
    }
    return Summary;
  }

  void processAllRemaining(const std::vector<Stmt *> &Body,
                           const pysem::ClassInfo *EnclosingClass) {
    for (const Stmt *S : Body) {
      if (const auto *Fn = dyn_cast<FunctionDefStmt>(S)) {
        processFunction(Fn, EnclosingClass, /*Depth=*/0);
        // Nested defs are reached when the body was processed; scan anyway
        // in case processing was skipped by recursion guards.
        processAllRemaining(Fn->Body, EnclosingClass);
        continue;
      }
      if (const auto *C = dyn_cast<ClassDefStmt>(S)) {
        const pysem::ClassInfo *Info = Scope.lookupClass(C->Name);
        processAllRemaining(C->Body, Info);
        continue;
      }
      if (const auto *I = dyn_cast<IfStmt>(S)) {
        processAllRemaining(I->Then, EnclosingClass);
        processAllRemaining(I->Else, EnclosingClass);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Statement walk
  //===--------------------------------------------------------------------===//

  struct FnContext {
    FunctionSummary *Summary = nullptr;
    /// Names declared `global` in this function: assignments write through
    /// to the module environment.
    std::unordered_set<std::string> Globals;
  };

  void runStmts(const std::vector<Stmt *> &Body, Env &E, FnContext *Fn,
                int Depth) {
    for (const Stmt *S : Body)
      runStmt(S, E, Fn, Depth);
  }

  void runStmt(const Stmt *S, Env &E, FnContext *Fn, int Depth) {
    switch (S->kind()) {
    case NodeKind::ExprStmt:
      evalExpr(cast<ExprStmt>(S)->Value, E, Fn, Depth);
      return;
    case NodeKind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      Value V = evalExpr(A->Value, E, Fn, Depth);
      for (const Expr *T : A->Targets)
        assignTo(T, V, E, Fn, Depth);
      return;
    }
    case NodeKind::AugAssign: {
      const auto *A = cast<AugAssignStmt>(S);
      Value V = evalExpr(A->Value, E, Fn, Depth);
      if (const auto *Name = dyn_cast<NameExpr>(A->Target)) {
        Value &Old = E[Name->Id];
        for (EventId Id : V.Events)
          Old.Events.push_back(Id);
        Old.Paths.clear();
        Old.PureModulePath = false;
      } else {
        assignTo(A->Target, V, E, Fn, Depth);
      }
      return;
    }
    case NodeKind::AnnAssign: {
      const auto *A = cast<AnnAssignStmt>(S);
      if (A->Value) {
        Value V = evalExpr(A->Value, E, Fn, Depth);
        assignTo(A->Target, V, E, Fn, Depth);
      }
      return;
    }
    case NodeKind::Return: {
      const auto *R = cast<ReturnStmt>(S);
      if (!R->Value)
        return;
      Value V = evalExpr(R->Value, E, Fn, Depth);
      if (Fn && Fn->Summary)
        for (EventId Id : V.Events)
          Fn->Summary->ReturnEvents.push_back(Id);
      return;
    }
    case NodeKind::If: {
      const auto *I = cast<IfStmt>(S);
      evalExpr(I->Cond, E, Fn, Depth);
      Env ThenEnv = E, ElseEnv = E;
      runStmts(I->Then, ThenEnv, Fn, Depth);
      runStmts(I->Else, ElseEnv, Fn, Depth);
      E = mergeEnvs(ThenEnv, ElseEnv);
      return;
    }
    case NodeKind::While: {
      const auto *W = cast<WhileStmt>(S);
      evalExpr(W->Cond, E, Fn, Depth);
      runStmts(W->Body, E, Fn, Depth); // Single iteration (§5.2).
      runStmts(W->Else, E, Fn, Depth);
      return;
    }
    case NodeKind::For: {
      const auto *F = cast<ForStmt>(S);
      Value Iter = evalExpr(F->Iter, E, Fn, Depth);
      Value Elem;
      Elem.Events = Iter.Events; // Reading an element of a tainted
                                 // collection yields tainted data.
      Elem.PtVar = freshPtVar("iter");
      if (Iter.PtVar != InvalidPtVar)
        PT.addLoad(Elem.PtVar, Iter.PtVar, "$elem");
      assignTo(F->Target, Elem, E, Fn, Depth);
      runStmts(F->Body, E, Fn, Depth);
      runStmts(F->Else, E, Fn, Depth);
      return;
    }
    case NodeKind::With: {
      const auto *W = cast<WithStmt>(S);
      for (const WithItem &Item : W->Items) {
        Value Ctx = evalExpr(Item.ContextExpr, E, Fn, Depth);
        if (Item.OptionalVars)
          assignTo(Item.OptionalVars, Ctx, E, Fn, Depth);
      }
      runStmts(W->Body, E, Fn, Depth);
      return;
    }
    case NodeKind::Try: {
      const auto *T = cast<TryStmt>(S);
      runStmts(T->Body, E, Fn, Depth);
      for (const ExceptHandler &H : T->Handlers)
        runStmts(H.Body, E, Fn, Depth);
      runStmts(T->OrElse, E, Fn, Depth);
      runStmts(T->Finally, E, Fn, Depth);
      return;
    }
    case NodeKind::Raise: {
      const auto *R = cast<RaiseStmt>(S);
      if (R->Exc)
        evalExpr(R->Exc, E, Fn, Depth);
      return;
    }
    case NodeKind::Assert: {
      const auto *A = cast<AssertStmt>(S);
      evalExpr(A->Test, E, Fn, Depth);
      if (A->Msg)
        evalExpr(A->Msg, E, Fn, Depth);
      return;
    }
    case NodeKind::Delete:
      for (const Expr *T : cast<DeleteStmt>(S)->Targets)
        if (const auto *Name = dyn_cast<NameExpr>(T))
          E.erase(Name->Id);
      return;
    case NodeKind::Global:
      if (Fn)
        for (const std::string &Name : cast<GlobalStmt>(S)->Names)
          Fn->Globals.insert(Name);
      return;
    case NodeKind::FunctionDef:
      // Processed on demand at call sites or in pass 2; nothing flows here.
      return;
    case NodeKind::ClassDef: {
      // Class-body assignments (class attributes) run in a scratch env; the
      // contained method defs are processed on demand / in pass 2.
      const auto *C = cast<ClassDefStmt>(S);
      Env ClassEnv = E;
      for (const Stmt *Member : C->Body)
        if (!isa<FunctionDefStmt>(Member))
          runStmt(Member, ClassEnv, Fn, Depth);
      for (const Expr *Base : C->Bases)
        evalExpr(Base, E, Fn, Depth);
      return;
    }
    default:
      return; // pass/break/continue/import/global — no dataflow.
    }
  }

  Env mergeEnvs(const Env &A, const Env &B) {
    Env Out = A;
    for (const auto &[Name, VB] : B) {
      auto It = Out.find(Name);
      if (It == Out.end()) {
        Out.emplace(Name, VB);
        continue;
      }
      Value &VA = It->second;
      for (EventId Id : VB.Events)
        if (std::find(VA.Events.begin(), VA.Events.end(), Id) ==
            VA.Events.end())
          VA.Events.push_back(Id);
      if (VA.Paths != VB.Paths) {
        VA.Paths.clear();
        VA.PureModulePath = false;
      }
      if (VA.InstanceClass != VB.InstanceClass)
        VA.InstanceClass.clear();
      if (VA.PtVar == InvalidPtVar)
        VA.PtVar = VB.PtVar;
      else if (VB.PtVar != InvalidPtVar && VB.PtVar != VA.PtVar) {
        pointsto::VarId Merged = freshPtVar("phi");
        PT.addCopy(Merged, VA.PtVar);
        PT.addCopy(Merged, VB.PtVar);
        VA.PtVar = Merged;
      }
    }
    return Out;
  }

  void assignTo(const Expr *Target, const Value &V, Env &E, FnContext *Fn,
                int Depth) {
    switch (Target->kind()) {
    case NodeKind::Name: {
      const std::string &Name = cast<NameExpr>(Target)->Id;
      E[Name] = V;
      // `global x` makes the assignment visible at module scope, where
      // later-processed functions pick it up through their initial env.
      if (Fn && Fn->Globals.count(Name))
        ModuleEnv[Name] = V;
      return;
    }
    case NodeKind::Tuple:
    case NodeKind::List: {
      const auto &Elements = Target->kind() == NodeKind::Tuple
                                 ? cast<TupleExpr>(Target)->Elements
                                 : cast<ListExpr>(Target)->Elements;
      Value Elem;
      Elem.Events = V.Events; // Unpacking spreads the flow (over-approx).
      Elem.PtVar = V.PtVar;
      for (const Expr *T : Elements)
        assignTo(T, Elem, E, Fn, Depth);
      return;
    }
    case NodeKind::Starred:
      assignTo(cast<StarredExpr>(Target)->Value, V, E, Fn, Depth);
      return;
    case NodeKind::Attribute: {
      const auto *A = cast<AttributeExpr>(Target);
      Value Base = evalExpr(A->Value, E, Fn, Depth);
      recordFieldStore(Base, A->Attr, V);
      return;
    }
    case NodeKind::Subscript: {
      const auto *Sub = cast<SubscriptExpr>(Target);
      Value Base = evalExpr(Sub->Value, E, Fn, Depth);
      evalExpr(Sub->Index, E, Fn, Depth);
      recordFieldStore(Base, "$elem", V);
      return;
    }
    default:
      return;
    }
  }

  void recordFieldStore(Value &Base, const std::string &Field,
                        const Value &V) {
    if (!Opts.UsePointsTo || V.Events.empty())
      return;
    pointsto::VarId BaseVar = ptVarOf(Base, "storebase");
    Stores.push_back({BaseVar, Field, V.Events});
    if (V.PtVar != InvalidPtVar)
      PT.addStore(BaseVar, Field, V.PtVar);
  }

  //===--------------------------------------------------------------------===//
  // Expression walk
  //===--------------------------------------------------------------------===//

  Value evalExpr(const Expr *Ex, Env &E, FnContext *Fn, int Depth) {
    return evalExprCtx(Ex, E, Fn, Depth, /*BasePosition=*/false);
  }

  /// \p BasePosition is true when the result is only used as the base of a
  /// longer attribute/subscript/call chain — pure module-path prefixes then
  /// stay path-only and do not become events.
  Value evalExprCtx(const Expr *Ex, Env &E, FnContext *Fn, int Depth,
                    bool BasePosition) {
    switch (Ex->kind()) {
    case NodeKind::Name:
      return evalName(cast<NameExpr>(Ex), E);
    case NodeKind::Attribute:
      return evalAttribute(cast<AttributeExpr>(Ex), E, Fn, Depth,
                           BasePosition);
    case NodeKind::Subscript:
      return evalSubscript(cast<SubscriptExpr>(Ex), E, Fn, Depth);
    case NodeKind::Call:
      return evalCall(cast<CallExpr>(Ex), E, Fn, Depth);
    case NodeKind::Binary: {
      const auto *B = cast<BinaryExpr>(Ex);
      Value L = evalExpr(B->Lhs, E, Fn, Depth);
      Value R = evalExpr(B->Rhs, E, Fn, Depth);
      Value Out;
      Out.Events = unionEvents(L.Events, R.Events);
      return Out;
    }
    case NodeKind::Unary:
      return evalExpr(cast<UnaryExpr>(Ex)->Operand, E, Fn, Depth);
    case NodeKind::BoolOp: {
      Value Out;
      Out.PtVar = freshPtVar("boolop");
      for (const Expr *Op : cast<BoolOpExpr>(Ex)->Operands) {
        Value V = evalExpr(Op, E, Fn, Depth);
        Out.Events = unionEvents(Out.Events, V.Events);
        if (V.PtVar != InvalidPtVar)
          PT.addCopy(Out.PtVar, V.PtVar);
      }
      return Out;
    }
    case NodeKind::Compare: {
      const auto *C = cast<CompareExpr>(Ex);
      evalExpr(C->First, E, Fn, Depth);
      for (const Expr *Cmp : C->Comparators)
        evalExpr(Cmp, E, Fn, Depth);
      return Value{}; // Comparisons yield booleans; no taint propagation.
    }
    case NodeKind::Conditional: {
      const auto *C = cast<ConditionalExpr>(Ex);
      evalExpr(C->Cond, E, Fn, Depth);
      Value A = evalExpr(C->Body, E, Fn, Depth);
      Value B = evalExpr(C->OrElse, E, Fn, Depth);
      Value Out;
      Out.Events = unionEvents(A.Events, B.Events);
      return Out;
    }
    case NodeKind::List:
    case NodeKind::Tuple:
    case NodeKind::Set:
    case NodeKind::Dict:
      return evalDisplay(Ex, E, Fn, Depth);
    case NodeKind::Comprehension: {
      const auto *C = cast<ComprehensionExpr>(Ex);
      Value Iter = evalExpr(C->Iter, E, Fn, Depth);
      Env Inner = E;
      Value Elem;
      Elem.Events = Iter.Events;
      assignTo(C->Target, Elem, Inner, Fn, Depth);
      if (C->Cond)
        evalExpr(C->Cond, Inner, Fn, Depth);
      Value Out;
      if (C->KeyElement)
        evalExpr(C->KeyElement, Inner, Fn, Depth);
      Value Body = evalExpr(C->Element, Inner, Fn, Depth);
      Out.Events = unionEvents(Body.Events, Iter.Events);
      return Out;
    }
    case NodeKind::JoinedStr: {
      // f-strings propagate every interpolated value (f"q={user_input}").
      Value Out;
      for (const Expr *Part : cast<JoinedStrExpr>(Ex)->Interpolations) {
        Value V = evalExpr(Part, E, Fn, Depth);
        Out.Events = unionEvents(Out.Events, V.Events);
      }
      return Out;
    }
    case NodeKind::Starred:
      return evalExpr(cast<StarredExpr>(Ex)->Value, E, Fn, Depth);
    case NodeKind::Lambda:
      // Treated as opaque (the body runs elsewhere); no flow modeled.
      return Value{};
    case NodeKind::Yield: {
      const auto *Y = cast<YieldExpr>(Ex);
      if (Y->Value) {
        // Yielded values are results of the function (like returns).
        Value V = evalExpr(Y->Value, E, Fn, Depth);
        if (Fn && Fn->Summary)
          for (EventId Id : V.Events)
            Fn->Summary->ReturnEvents.push_back(Id);
      }
      return Value{};
    }
    case NodeKind::Slice: {
      const auto *S = cast<SliceExpr>(Ex);
      if (S->Lower)
        evalExpr(S->Lower, E, Fn, Depth);
      if (S->Upper)
        evalExpr(S->Upper, E, Fn, Depth);
      if (S->Step)
        evalExpr(S->Step, E, Fn, Depth);
      return Value{};
    }
    default:
      return Value{}; // Literals carry no taint.
    }
  }

  Value evalName(const NameExpr *Name, Env &E) {
    auto It = E.find(Name->Id);
    if (It != E.end())
      return It->second;
    Value V;
    if (std::optional<std::string> Qual =
            Scope.imports().resolveRoot(Name->Id)) {
      V.Paths = {*Qual};
      V.PureModulePath = true;
    } else {
      // Unknown free name: builtin, star import, or late-bound global.
      V.Paths = {Name->Id};
      V.PureModulePath = true;
    }
    return V;
  }

  /// Renders a subscript link: "['key']", "[3]", or "[]". The key's text
  /// is escaped so a representation stays one line of printable bytes, as
  /// specs and graph dumps store it: a backslash doubles, newline, tab and
  /// carriage return become \n, \t and \r, any other byte below 0x20 and
  /// 0x7f become \xNN, and every other byte is kept.
  static std::string subscriptLink(const Expr *Index) {
    if (const auto *S = dyn_cast<StringExpr>(Index)) {
      std::string Link = "['";
      for (char C : S->Value) {
        switch (C) {
        case '\\': Link += "\\\\"; break;
        case '\n': Link += "\\n"; break;
        case '\t': Link += "\\t"; break;
        case '\r': Link += "\\r"; break;
        default:
          if (static_cast<unsigned char>(C) < 0x20 || C == 0x7f)
            Link += formatString("\\x%02x", static_cast<unsigned char>(C));
          else
            Link += C;
        }
      }
      return Link + "']";
    }
    if (const auto *N = dyn_cast<NumberExpr>(Index))
      return "[" + N->Spelling + "]";
    return "[]";
  }

  Value evalAttribute(const AttributeExpr *A, Env &E, FnContext *Fn,
                      int Depth, bool BasePosition) {
    Value Base = evalExprCtx(A->Value, E, Fn, Depth, /*BasePosition=*/true);
    std::string Link = "." + A->Attr;
    Value Out;
    Out.Paths = Base.Paths.empty() ? unknownPath(Link)
                                   : extendPaths(Base.Paths, Link);
    Out.PureModulePath = Base.PureModulePath;
    Out.InstanceClass = Base.InstanceClass;

    // Pure module-path prefixes (e.g. `os.path` inside `os.path.join`) are
    // paths, not data reads; only the outermost use becomes an event.
    if (BasePosition && Base.PureModulePath && Base.Events.empty())
      return Out;

    EventId Read = makeEvent(EventKind::ObjectRead, Out.Paths, A->loc());
    flowInto(Base.Events, Read);
    Out.Events = {Read};
    Out.PureModulePath = false;
    Out.InstanceClass.clear();
    if (Opts.UsePointsTo) {
      Out.PtVar = freshPtVar("attr");
      if (Base.PtVar != InvalidPtVar)
        PT.addLoad(Out.PtVar, Base.PtVar, A->Attr);
      pointsto::VarId BaseVar = ptVarOf(Base, "loadbase");
      Loads.push_back({BaseVar, A->Attr, Read});
    }
    return Out;
  }

  Value evalSubscript(const SubscriptExpr *S, Env &E, FnContext *Fn,
                      int Depth) {
    Value Base = evalExprCtx(S->Value, E, Fn, Depth, /*BasePosition=*/true);
    Value Index = evalExpr(S->Index, E, Fn, Depth);
    std::string Link = subscriptLink(S->Index);
    Value Out;
    Out.Paths = Base.Paths.empty() ? unknownPath(Link)
                                   : extendPaths(Base.Paths, Link);

    EventId Read = makeEvent(EventKind::ObjectRead, Out.Paths, S->loc());
    flowInto(Base.Events, Read);
    Out.Events = {Read};
    if (Opts.UsePointsTo) {
      Out.PtVar = freshPtVar("subscript");
      if (Base.PtVar != InvalidPtVar)
        PT.addLoad(Out.PtVar, Base.PtVar, "$elem");
      pointsto::VarId BaseVar = ptVarOf(Base, "loadbase");
      Loads.push_back({BaseVar, "$elem", Read});
    }
    return Out;
  }

  Value evalDisplay(const Expr *Ex, Env &E, FnContext *Fn, int Depth) {
    // Containers: information flows from every entry to the container
    // (§5.2, Data Structures).
    std::vector<const Expr *> Parts;
    if (const auto *L = dyn_cast<ListExpr>(Ex))
      for (const Expr *El : L->Elements)
        Parts.push_back(El);
    if (const auto *T = dyn_cast<TupleExpr>(Ex))
      for (const Expr *El : T->Elements)
        Parts.push_back(El);
    if (const auto *S = dyn_cast<SetExpr>(Ex))
      for (const Expr *El : S->Elements)
        Parts.push_back(El);
    if (const auto *D = dyn_cast<DictExpr>(Ex)) {
      for (const Expr *K : D->Keys)
        if (K)
          Parts.push_back(K);
      for (const Expr *V : D->Values)
        Parts.push_back(V);
    }
    Value Out;
    if (Opts.UsePointsTo) {
      Out.PtVar = freshPtVar("container");
      PT.addAlloc(Out.PtVar, PT.makeObj("container@" +
                                        std::to_string(Ex->loc().Line)));
    }
    for (const Expr *P : Parts) {
      Value V = evalExpr(P, E, Fn, Depth);
      Out.Events = unionEvents(Out.Events, V.Events);
      if (Opts.UsePointsTo && V.PtVar != InvalidPtVar)
        PT.addStore(Out.PtVar, "$elem", V.PtVar);
    }
    return Out;
  }

  Value evalCall(const CallExpr *C, Env &E, FnContext *Fn, int Depth) {
    // Evaluate arguments first.
    std::vector<Value> ArgValues;
    for (const Expr *Arg : C->Args)
      ArgValues.push_back(evalExpr(Arg, E, Fn, Depth));
    std::vector<std::pair<std::string, Value>> KwValues;
    for (const KeywordArg &K : C->Keywords)
      KwValues.emplace_back(K.Name, evalExpr(K.Value, E, Fn, Depth));

    // Identify the callee target and render representation options.
    Value Receiver;          // For method calls: the object flowed through.
    std::vector<std::string> RepOptions;
    std::string CrossModuleTarget; // Import-resolved callee (if any).
    const FunctionDefStmt *LocalTarget = nullptr;
    const pysem::ClassInfo *LocalTargetClass = nullptr;
    const pysem::ClassInfo *ConstructedClass = nullptr;
    bool CalleeIsLocals = false;

    if (const auto *Name = dyn_cast<NameExpr>(C->Callee)) {
      if (E.find(Name->Id) == E.end()) {
        if (const FunctionDefStmt *Local = Scope.lookupFunction(Name->Id)) {
          LocalTarget = Local;
          RepOptions = {Module.ModuleName + "." + Name->Id + "()",
                        Name->Id + "()"};
        } else if (const pysem::ClassInfo *Cls = Scope.lookupClass(Name->Id)) {
          ConstructedClass = Cls;
          RepOptions = {Module.ModuleName + "." + Name->Id + "()",
                        Name->Id + "()"};
        } else if (std::optional<std::string> Qual =
                       Scope.imports().resolveRoot(Name->Id)) {
          RepOptions = {*Qual + "()"};
          CrossModuleTarget = *Qual;
        } else {
          if (Opts.ModelLocals && Name->Id == "locals")
            CalleeIsLocals = true;
          RepOptions = {Name->Id + "()"};
        }
      } else {
        // Calling a local variable (bound lambda / aliased function).
        Value V = E[Name->Id];
        Receiver = V;
        RepOptions = V.Paths.empty() ? unknownPath("()")
                                     : extendPaths(V.Paths, "()");
      }
    } else if (const auto *Attr = dyn_cast<AttributeExpr>(C->Callee)) {
      Receiver = evalExprCtx(Attr->Value, E, Fn, Depth, /*BasePosition=*/true);
      std::string Link = "." + Attr->Attr + "()";
      RepOptions = Receiver.Paths.empty()
                       ? unknownPath(Link)
                       : extendPaths(Receiver.Paths, Link);
      if (Receiver.PureModulePath && Receiver.Paths.size() == 1)
        CrossModuleTarget = Receiver.Paths.front() + "." + Attr->Attr;
      // Method call on a known same-module instance (including `self`).
      if (!Receiver.InstanceClass.empty()) {
        LocalTarget = Scope.lookupMethod(Receiver.InstanceClass, Attr->Attr);
        LocalTargetClass = Scope.lookupClass(Receiver.InstanceClass);
      }
    } else {
      Value V = evalExprCtx(C->Callee, E, Fn, Depth, /*BasePosition=*/true);
      Receiver = V;
      RepOptions =
          V.Paths.empty() ? unknownPath("()") : extendPaths(V.Paths, "()");
    }

    EventId Call = makeEvent(EventKind::Call, RepOptions, C->loc());

    // When project-level linking will try to resolve this call, defer the
    // direct argument edges: a linked call routes its arguments through
    // the callee's parameters instead (falling back to direct edges when
    // no project module exports the target).
    bool DeferArgEdges = Artifacts && !CrossModuleTarget.empty() &&
                         !Opts.ArgPositionReps;
    // Precise inlining: a successfully inlined same-module call likewise
    // routes flow only through the callee's body.
    if (Opts.PreciseInlining && !Opts.ArgPositionReps &&
        Depth < Opts.MaxInlineDepth) {
      const FunctionDefStmt *Probe = LocalTarget;
      if (!Probe && ConstructedClass) {
        auto It = ConstructedClass->Methods.find("__init__");
        if (It != ConstructedClass->Methods.end())
          Probe = It->second;
      }
      if (Probe) {
        auto It = Summaries.find(Probe);
        // Only defer when the summary is (or will be) usable: a function
        // currently being processed (recursion) keeps direct edges.
        if (It == Summaries.end() || !It->second.InProgress)
          DeferArgEdges = true;
      }
    }

    // Arguments and the receiver flow into the call (§5.2). In
    // argument-position-sensitive mode each argument is interposed with
    // its own sink-candidate event (paper §3.3's future work).
    if (DeferArgEdges) {
      // Edges added by the linking pass in buildProjectGraph.
    } else if (Opts.ArgPositionReps) {
      auto MakeArgEvent = [&](const std::string &Slot,
                              const std::vector<EventId> &Events) {
        if (Events.empty())
          return;
        EventId AE = makeEvent(EventKind::CallArgument,
                               extendPaths(RepOptions, Slot), C->loc());
        flowInto(Events, AE);
        addEdge(AE, Call);
      };
      for (size_t I = 0; I < ArgValues.size(); ++I)
        MakeArgEvent("[arg" + std::to_string(I) + "]", ArgValues[I].Events);
      for (const auto &[Kw, KV] : KwValues)
        MakeArgEvent(Kw.empty() ? std::string("[kwargs]") : "[kw:" + Kw + "]",
                     KV.Events);
    } else {
      for (const Value &AV : ArgValues)
        flowInto(AV.Events, Call);
      for (const auto &[Kw, KV] : KwValues)
        flowInto(KV.Events, Call);
    }
    flowInto(Receiver.Events, Call);

    if (CalleeIsLocals) {
      // locals() receives flow from every local variable (§5.2).
      for (const auto &[VarName, VarValue] : E)
        flowInto(VarValue.Events, Call);
    }

    if (Artifacts && !CrossModuleTarget.empty() && !Opts.ArgPositionReps) {
      ModuleArtifacts::CallSite Site;
      Site.Target = std::move(CrossModuleTarget);
      std::vector<std::string> Parts =
          splitString(Module.ModuleName, '.');
      Parts.pop_back();
      Site.CallerPackage = joinStrings(Parts, ".");
      Site.Call = Call;
      for (const Value &AV : ArgValues)
        Site.Args.push_back(AV.Events);
      for (const auto &[Kw, KV] : KwValues)
        Site.Kwargs.emplace_back(Kw, KV.Events);
      Artifacts->Calls.push_back(std::move(Site));
    }

    // Same-module inlining: wire arguments to parameter events and returns
    // back to the call event (§5.2, Inlining Methods).
    const FunctionDefStmt *InlineFn = LocalTarget;
    const pysem::ClassInfo *InlineClass = LocalTargetClass;
    if (!InlineFn && ConstructedClass) {
      auto It = ConstructedClass->Methods.find("__init__");
      if (It != ConstructedClass->Methods.end()) {
        InlineFn = It->second;
        InlineClass = ConstructedClass;
      }
    }
    bool InlinedPrecisely = false;
    if (InlineFn && Depth < Opts.MaxInlineDepth) {
      FunctionSummary &Summary =
          processFunction(InlineFn, InlineClass, Depth + 1);
      if (Summary.Processed) {
        InlinedPrecisely = true;
        // Positional arguments: methods get the receiver as `self`.
        size_t ParamBase = InlineClass ? 1 : 0;
        if (InlineClass && !Summary.ParamEvents.empty())
          flowInto(Receiver.Events, Summary.ParamEvents[0]);
        for (size_t I = 0; I < ArgValues.size(); ++I) {
          size_t ParamIdx = ParamBase + I;
          if (ParamIdx >= Summary.ParamEvents.size())
            break;
          flowInto(ArgValues[I].Events, Summary.ParamEvents[ParamIdx]);
        }
        for (const auto &[Kw, KV] : KwValues) {
          for (size_t P = 0; P < InlineFn->Params.size(); ++P)
            if (InlineFn->Params[P].Name == Kw)
              flowInto(KV.Events, Summary.ParamEvents[P]);
        }
        for (EventId R : Summary.ReturnEvents)
          addEdge(R, Call);
      }
    }
    if (Opts.PreciseInlining && !InlinedPrecisely && DeferArgEdges &&
        !(Artifacts && !CrossModuleTarget.empty())) {
      // Precise-inlining deferral without a usable summary: restore the
      // §5.2 direct edges.
      for (const Value &AV : ArgValues)
        flowInto(AV.Events, Call);
      for (const auto &[Kw, KV] : KwValues)
        flowInto(KV.Events, Call);
    }

    Value Out;
    Out.Events = {Call};
    Out.Paths = extendPathsForResult(RepOptions);
    if (ConstructedClass)
      Out.InstanceClass = ConstructedClass->Name;
    if (Opts.UsePointsTo) {
      // Calls with unknown bodies are allocation sites (§5.2); local
      // constructors yield the class's shared abstract instance.
      Out.PtVar = freshPtVar("call");
      if (ConstructedClass)
        PT.addAlloc(Out.PtVar, classInstanceObj(ConstructedClass->Name));
      else
        PT.addAlloc(Out.PtVar,
                    PT.makeObj("call:" + RepOptions.front() + "@" +
                               std::to_string(C->loc().Line)));
    }
    return Out;
  }

  /// The path of a call result is the call rendering itself (the "()" is
  /// already part of each option).
  static std::vector<std::string>
  extendPathsForResult(const std::vector<std::string> &RepOptions) {
    return RepOptions;
  }

  static std::vector<EventId> unionEvents(const std::vector<EventId> &A,
                                          const std::vector<EventId> &B) {
    std::vector<EventId> Out = A;
    for (EventId Id : B)
      if (std::find(Out.begin(), Out.end(), Id) == Out.end())
        Out.push_back(Id);
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  const pysem::ModuleInfo &Module;
  const ModuleNode *Ast;
  BuildOptions Opts;
  ModuleArtifacts *Artifacts = nullptr;
  pysem::ModuleScope Scope;
  PropagationGraph Graph;
  /// The module's flow edges, in the order the walk finds them.
  std::vector<Edge> Edges;
  /// makeEvent()'s options as views, reused across events.
  std::vector<std::string_view> RepViews;
  uint32_t FileIdx = 0;
  Env ModuleEnv;
  std::unordered_map<const FunctionDefStmt *, FunctionSummary> Summaries;
  pointsto::AndersenSolver PT;
  std::unordered_map<std::string, pointsto::ObjId> ClassInstanceObjs;
  std::vector<FieldStore> Stores;
  std::vector<FieldLoad> Loads;
  unsigned PtTemp = 0;
};

/// Lexes and parses \p Module into \p Ctx, timing the parse into the
/// parse.* metrics (safe from concurrent project builds).
const ModuleNode *parseModule(AstContext &Ctx, const pysem::ModuleInfo &Module,
                              std::vector<ParseError> *Diagnostics) {
  Timer Clock;
  const ModuleNode *Ast = parseSource(Ctx, Module.Source, Diagnostics);
  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled()) {
    Reg.timer("parse.file_seconds").record(Clock.seconds());
    Reg.counter("parse.files").add();
  }
  return Ast;
}

/// Parses and builds one module; the AST dies with this frame.
PropagationGraph buildOne(const pysem::ModuleInfo &Module,
                          const BuildOptions &Opts,
                          std::vector<ParseError> *Diagnostics,
                          ModuleArtifacts *Artifacts = nullptr) {
  AstContext Ctx;
  ModuleGraphBuilder Builder(Module, parseModule(Ctx, Module, Diagnostics),
                             Opts, Artifacts);
  return Builder.build();
}

} // namespace

PropagationGraph
seldon::propgraph::buildModuleGraph(const pysem::Project &Proj,
                                    const pysem::ModuleInfo &Module,
                                    const BuildOptions &Opts,
                                    std::vector<ParseError> *Diagnostics) {
  (void)Proj; // Cross-module resolution is per-file in this reproduction.
  return buildOne(Module, Opts, Diagnostics);
}

PropagationGraph
seldon::propgraph::buildProjectGraph(const pysem::Project &Proj,
                                     const BuildOptions &Opts,
                                     std::vector<ParseError> *Diagnostics) {
  PropagationGraph Out;
  if (!Opts.CrossModuleFlows) {
    for (const pysem::ModuleInfo &M : Proj.modules())
      Out.append(buildOne(M, Opts, Diagnostics));
    return Out;
  }

  // Beyond-paper mode: link calls to project-local modules. Build every
  // module, collect its exports and cross-module call sites, then wire
  // arguments to parameters and returns to calls.
  ModuleArtifacts Linked;
  for (const pysem::ModuleInfo &M : Proj.modules()) {
    ModuleArtifacts Artifacts;
    PropagationGraph G = buildOne(M, Opts, Diagnostics, &Artifacts);
    Artifacts.offsetIds(static_cast<EventId>(Out.numEvents()));
    Out.append(std::move(G));
    for (auto &[Name, Fn] : Artifacts.Exports)
      Linked.Exports.emplace(Name, std::move(Fn));
    for (auto &Site : Artifacts.Calls)
      Linked.Calls.push_back(std::move(Site));
  }

  std::vector<Edge> Links;
  for (const ModuleArtifacts::CallSite &Site : Linked.Calls) {
    auto It = Linked.Exports.find(Site.Target);
    if (It == Linked.Exports.end() && !Site.CallerPackage.empty())
      // `from utils import f` inside pkg.app resolves to pkg.utils.f.
      It = Linked.Exports.find(Site.CallerPackage + "." + Site.Target);
    if (It == Linked.Exports.end()) {
      // Unresolved: restore the deferred direct argument edges (§5.2's
      // unknown-body behaviour).
      for (const auto &Events : Site.Args)
        for (EventId Arg : Events)
          Links.push_back({Arg, Site.Call});
      for (const auto &[Kw, Events] : Site.Kwargs)
        for (EventId Arg : Events)
          Links.push_back({Arg, Site.Call});
      continue;
    }
    const ModuleArtifacts::ExportedFn &Fn = It->second;
    for (size_t I = 0; I < Site.Args.size() && I < Fn.Params.size(); ++I)
      for (EventId Arg : Site.Args[I])
        Links.push_back({Arg, Fn.Params[I].second});
    for (const auto &[Kw, Events] : Site.Kwargs)
      for (const auto &[ParamName, ParamEvent] : Fn.Params)
        if (ParamName == Kw)
          for (EventId Arg : Events)
            Links.push_back({Arg, ParamEvent});
    for (EventId Ret : Fn.Returns)
      Links.push_back({Ret, Site.Call});
  }
  Out.addEdges(Links);
  return Out;
}
