//===- propgraph/GraphBuilder.cpp - AST -> propagation graph --------------===//
//
// A module's walk allocates from its thread's workspace, not per
// expression: values, their event lists and path options, environment
// history and function summaries are bumped out of an arena that is reset
// for each module, and the scope, the points-to solver, the environment
// layers and the edge buffers are reused with their capacity. A project's
// modules are built straight into one graph.
//
//===----------------------------------------------------------------------===//

#include "propgraph/GraphBuilder.h"

#include "pointsto/AndersenSolver.h"
#include "pysem/ScopeBuilder.h"
#include "support/Arena.h"
#include "support/FlatMap.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <memory>
#include <new>
#include <unordered_map>

using namespace seldon;
using namespace seldon::propgraph;
using namespace seldon::pyast;

namespace {

constexpr pointsto::VarId InvalidPtVar = ~static_cast<pointsto::VarId>(0);

/// The abstract value of an expression during the dataflow walk. Its lists
/// live in the module's arena and its names in the AST or the scope, so a
/// copy is a few words.
struct Value {
  /// Events whose information flows out of the expression.
  std::span<const EventId> Events;
  /// Symbolic path options (most -> least specific) used to render event
  /// representations; empty when the expression has no renderable path.
  std::span<const std::string_view> Paths;
  /// The same-module class this value is an instance of (set for
  /// constructor-call results and `self`), enabling method inlining.
  const pysem::ClassInfo *InstanceClass = nullptr;
  /// Points-to variable holding the objects this value may denote.
  pointsto::VarId PtVar = InvalidPtVar;
  /// True while the path is a pure import-rooted attribute chain (a module
  /// or class path, not data) — such prefixes do not form events.
  bool PureModulePath = false;
};

/// Summary of a processed function definition.
struct FunctionSummary {
  std::span<EventId> ParamEvents; // Parallel to Def->Params.
  ArenaList<EventId> ReturnEvents;
  bool InProgress = false;
  bool Processed = false;
};

/// One binding of a name in an environment layer: a value, or the name's
/// removal by `del`. Stamp is the walk's clock when it was written; Older
/// is the binding it replaced, kept while a snapshot may still read it.
struct Binding {
  Value V;
  const Binding *Older = nullptr;
  uint32_t Stamp = 0;
  bool Removed = false;
};

using Layer = FlatMap<std::string_view, Binding>;

/// Deferred field accesses resolved against the points-to solution.
struct FieldStore {
  pointsto::VarId Base;
  pointsto::FieldId Field;
  std::span<const EventId> Events;
};
struct FieldLoad {
  pointsto::VarId Base;
  pointsto::FieldId Field;
  EventId Target;
};

/// What a thread reuses from module to module. A module's build starts by
/// clearing what the previous one left (reset()); Edges is the graph's and
/// is cleared by the graph's build.
struct Workspace {
  Arena Mem;
  pysem::ModuleScope Scope;
  pointsto::AndersenSolver PT;
  /// Environment layers, one per nesting depth (environments are made and
  /// dropped in stack order), and the clock their snapshots read.
  std::vector<std::unique_ptr<Layer>> Layers;
  size_t Depth = 0;
  uint32_t Clock = 0;
  FlatMap<const FunctionDefStmt *, FunctionSummary *> Summaries;
  FlatMap<const pysem::ClassInfo *, pointsto::ObjId> ClassInstanceObjs;
  FlatMap<std::string_view, pointsto::FieldId> Fields;
  std::vector<FieldStore> Stores;
  std::vector<FieldLoad> Loads;
  /// The stores of each field, in recording order (offsets by field id).
  std::vector<uint32_t> StoreBegin, StoreOrder;
  /// Open event-list unions, innermost last; a union's events sit above
  /// those of the unions around it.
  std::vector<EventId> EventStack;
  /// A subscript key while it is escaped.
  std::string Text;
  /// The graph's flow edges in the order the walk finds them, and a
  /// buffer to group them by source.
  std::vector<Edge> Edges, BySource;
  std::vector<uint32_t> SourceBegin;

  void reset() {
    assert(Depth == 0 && "an environment outlived its module");
    Mem.reset();
    PT.clear();
    Clock = 0;
    Summaries.clear();
    ClassInstanceObjs.clear();
    Fields.clear();
    Stores.clear();
    Loads.clear();
    EventStack.clear();
  }
};

Workspace &workspace() {
  thread_local Workspace W;
  return W;
}

/// A variable environment: a layer of bindings over a snapshot of its
/// parent, taken when the layer was made. A function's environment is a
/// layer over the module's, a branch's or a class body's a layer over the
/// enclosing one, so none copies its parent's entries. A parent written
/// while a snapshot of it is live keeps the replaced binding in the
/// binding's history, which the snapshot reads by stamp.
class Env {
public:
  Env(Workspace &W, const Env *Parent)
      : W(W), Parent(Parent), ParentStamp(W.Clock++) {
    if (W.Depth == W.Layers.size())
      W.Layers.push_back(std::make_unique<Layer>());
    Own = W.Layers[W.Depth++].get();
  }
  ~Env() {
    Own->clear();
    --W.Depth;
  }
  Env(const Env &) = delete;
  Env &operator=(const Env &) = delete;

  /// The value \p Name is bound to, or null.
  const Value *find(std::string_view Name) const {
    const size_t Hash = FlatHash{}(Name);
    uint32_t At = Now;
    for (const Env *E = this; E; At = E->ParentStamp, E = E->Parent)
      if (const Binding *B = at(E->Own->findHashed(Name, Hash), At))
        return B->Removed ? nullptr : &B->V;
    return nullptr;
  }

  void set(std::string_view Name, const Value &V) { write(Name, V, false); }

  /// Unbinds \p Name (`del`).
  void remove(std::string_view Name) {
    if (find(Name))
      write(Name, Value(), true);
  }

  /// True if this layer itself ever bound \p Name.
  bool bindsHere(std::string_view Name) const { return Own->find(Name); }

  /// This layer's names with their latest bindings, in first-write order.
  std::span<const Layer::Entry> layer() const { return Own->entries(); }

  /// Calls \p Fn(Name, Value) for every bound name, each once.
  template <typename F> void forEachBound(F Fn) const {
    uint32_t At = Now;
    for (const Env *E = this; E; At = E->ParentStamp, E = E->Parent)
      for (const Layer::Entry &Entry : E->Own->entries()) {
        const Binding *B = at(&Entry.Value, At);
        if (B && !B->Removed && !boundBelow(E, Entry.Key))
          Fn(Entry.Key, B->V);
      }
  }

private:
  static constexpr uint32_t Now = ~uint32_t(0);

  /// \p B's binding as of stamp \p At, or null if it came later.
  static const Binding *at(const Binding *B, uint32_t At) {
    while (B && B->Stamp > At)
      B = B->Older;
    return B;
  }

  /// True if a layer between this one and \p Upper binds \p Name.
  bool boundBelow(const Env *Upper, std::string_view Name) const {
    uint32_t At = Now;
    for (const Env *E = this; E != Upper; At = E->ParentStamp, E = E->Parent)
      if (at(E->Own->find(Name), At))
        return true;
    return false;
  }

  void write(std::string_view Name, const Value &V, bool Removed) {
    auto [B, Inserted] = Own->insert(Name);
    if (!Inserted && B->Stamp != W.Clock) {
      // A snapshot taken since may still read the current binding.
      B->Older = new (W.Mem.allocateArray<Binding>(1)) Binding(*B);
    }
    B->V = V;
    B->Removed = Removed;
    B->Stamp = W.Clock;
  }

  Workspace &W;
  const Env *Parent;
  uint32_t ParentStamp;
  Layer *Own;
};

/// What one module build exports for project-level linking
/// (BuildOptions::CrossModuleFlows): its top-level functions and its calls
/// into other modules, with event ids of the project graph.
struct ModuleArtifacts {
  struct ExportedFn {
    std::vector<std::pair<std::string, EventId>> Params; // (name, event)
    std::vector<EventId> Returns;
  };
  /// Qualified function name ("pkg.utils.scrub") -> interface events.
  std::unordered_map<std::string, ExportedFn> Exports;

  struct CallSite {
    std::string Target;             ///< Qualified callee name (no "()").
    std::string_view CallerPackage; ///< For implicit-relative lookup.
    EventId Call;
    std::vector<std::vector<EventId>> Args;
    std::vector<std::pair<std::string, std::vector<EventId>>> Kwargs;
  };
  std::vector<CallSite> Calls;
};

/// The seconds since \p Start, and \p Start moved to now; only called
/// when metrics are on.
double lap(Timer &Start) {
  double Seconds = Start.seconds();
  Start.reset();
  return Seconds;
}

/// Per-module graph construction: adds the module's file and events to
/// \p Graph and its flow edges, in walk order, to the workspace's Edges.
class ModuleGraphBuilder {
public:
  /// \p Ast is \p Module's parsed source; it must outlive the builder.
  ModuleGraphBuilder(Workspace &W, const pysem::ModuleInfo &Module,
                     const ModuleNode *Ast, const BuildOptions &Opts,
                     PropagationGraph &Graph,
                     ModuleArtifacts *Artifacts = nullptr)
      : W(W), Module(Module), Ast(Ast), Opts(Opts), Artifacts(Artifacts),
        Scope(W.Scope), PT(W.PT), Graph(Graph) {}

  void build() {
    metrics::Registry &Reg = metrics::Registry::global();
    const bool Timed = Reg.enabled();
    Timer Clock;
    W.reset();
    Scope.build(Ast, Module.ModuleName);
    FileIdx = Graph.addFile(Module.Path);
    ElemField = fieldId("$elem");
    if (Timed)
      Reg.timer("scope.file_seconds").record(lap(Clock));

    {
      Env TopLevel(W, nullptr);
      ModuleEnv = &TopLevel;
      // Pass 1: module-level statements; function bodies are processed on
      // demand when called, so module-level flow reaches them.
      runStmts(Ast->Body, TopLevel, /*Fn=*/nullptr, /*Depth=*/0);

      // Pass 2: functions never called from module level still contribute
      // events and intraprocedural flow.
      processAllRemaining(Ast->Body, /*EnclosingClass=*/nullptr);
      ModuleEnv = nullptr;
    }
    if (Timed)
      Reg.timer("walk.file_seconds").record(lap(Clock));

    // Resolve alias-borne field flows against the points-to solution.
    if (Opts.UsePointsTo) {
      connectFieldFlows();
      if (Timed)
        Reg.timer("pointsto.file_seconds").record(lap(Clock));
    }
  }

private:
  //===--------------------------------------------------------------------===//
  // Arena helpers
  //===--------------------------------------------------------------------===//

  /// A one-element list in the arena.
  template <typename T> std::span<const T> one(T Item) {
    T *Out = W.Mem.allocateArray<T>(1);
    *Out = Item;
    return {Out, 1};
  }

  /// \p N values, default-initialized, in the arena.
  template <typename T> std::span<T> makeArray(size_t N) {
    T *Out = W.Mem.allocateArray<T>(N);
    std::uninitialized_value_construct_n(Out, N);
    return {Out, N};
  }

  /// An ordered union of event lists under construction, on the
  /// workspace's event stack. Unions nest: one opened while another is
  /// open closes first, and closing pops only its own events.
  class EventUnion {
  public:
    explicit EventUnion(std::vector<EventId> &Stack)
        : Stack(Stack), Mark(Stack.size()) {}
    ~EventUnion() { Stack.resize(Mark); }
    EventUnion(const EventUnion &) = delete;
    EventUnion &operator=(const EventUnion &) = delete;

    /// Appends \p Events as they are, repeats included.
    void append(std::span<const EventId> Events) {
      Stack.insert(Stack.end(), Events.begin(), Events.end());
    }
    /// Appends each of \p Events not already in the union.
    void add(std::span<const EventId> Events) {
      for (EventId Id : Events)
        if (std::find(Stack.begin() + Mark, Stack.end(), Id) == Stack.end())
          Stack.push_back(Id);
    }
    size_t size() const { return Stack.size() - Mark; }
    /// The union so far, copied into \p Mem.
    std::span<const EventId> copy(Arena &Mem) const {
      return Mem.copyArray<EventId>(
          std::span<const EventId>(Stack.data() + Mark, size()));
    }

  private:
    std::vector<EventId> &Stack;
    size_t Mark;
  };

  /// \p A's events, then \p B's that are not already listed; \p A itself
  /// when \p B adds nothing.
  std::span<const EventId> unionEvents(std::span<const EventId> A,
                                       std::span<const EventId> B) {
    EventUnion U(W.EventStack);
    U.append(A);
    U.add(B);
    return U.size() == A.size() ? A : U.copy(W.Mem);
  }

  //===--------------------------------------------------------------------===//
  // Event creation helpers
  //===--------------------------------------------------------------------===//

  EventId makeEvent(EventKind Kind, std::span<const std::string_view> Reps,
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
    return Graph.addEvent(Kind, Candidates, FileIdx, Loc, Reps);
  }

  /// Records the flow edge \p From -> \p To.
  void addEdge(EventId From, EventId To) { W.Edges.push_back({From, To}); }

  void flowInto(std::span<const EventId> Sources, EventId Target) {
    for (EventId S : Sources)
      addEdge(S, Target);
  }

  /// Every option of \p Paths with the link \p A \p B \p C (".attr",
  /// "['k']", "()", ...) appended, or the one option "<unknown>" plus the
  /// link when \p Paths is empty.
  std::span<const std::string_view>
  extendPaths(std::span<const std::string_view> Paths, std::string_view A,
              std::string_view B = {}, std::string_view C = {}) {
    if (Paths.empty())
      return one(W.Mem.concat({"<unknown>", A, B, C}));
    auto *Out = W.Mem.allocateArray<std::string_view>(Paths.size());
    for (size_t I = 0; I < Paths.size(); ++I)
      Out[I] = W.Mem.concat({Paths[I], A, B, C});
    return {Out, Paths.size()};
  }

  /// Path options for parameter \p ParamName of function \p Fn defined in
  /// \p Class (may be null). Ordered most -> least specific:
  ///   Class::fn(param p), QualifiedBase::fn(param p), ..., fn(param p), p
  /// The event's options are all but the last, the bare name.
  std::span<const std::string_view>
  paramRootPaths(const FunctionDefStmt *Fn, const pysem::ClassInfo *Class,
                 std::string_view ParamName) {
    std::string_view Suffix =
        W.Mem.concat({Fn->Name, "(param ", ParamName, ")"});
    const size_t N = Class ? Class->BaseQualNames.size() + 3 : 2;
    auto *Out = W.Mem.allocateArray<std::string_view>(N);
    size_t I = 0;
    if (Class) {
      Out[I++] = W.Mem.concat({Class->Name, "::", Suffix});
      for (std::string_view Base : Class->BaseQualNames)
        Out[I++] = W.Mem.concat({Base, "::", Suffix});
    }
    Out[I++] = Suffix;
    Out[I++] = ParamName;
    return {Out, N};
  }

  //===--------------------------------------------------------------------===//
  // Points-to plumbing
  //===--------------------------------------------------------------------===//

  pointsto::FieldId fieldId(std::string_view Name) {
    return *W.Fields
                .insert(Name, static_cast<pointsto::FieldId>(W.Fields.size()))
                .first;
  }

  /// The shared abstract instance object of a same-module class.
  pointsto::ObjId classInstanceObj(const pysem::ClassInfo *Class) {
    auto [Obj, Inserted] = W.ClassInstanceObjs.insert(Class);
    if (Inserted)
      *Obj = PT.makeObj();
    return *Obj;
  }

  pointsto::VarId ptVarOf(Value &V) {
    if (V.PtVar == InvalidPtVar)
      V.PtVar = PT.makeVar();
    return V.PtVar;
  }

  /// Connects every store to every aliasing load of the same field: loads
  /// in recording order, each one's stores in recording order.
  void connectFieldFlows() {
    PT.solve();
    std::vector<uint32_t> &Begin = W.StoreBegin, &Order = W.StoreOrder;
    Begin.assign(W.Fields.size() + 1, 0);
    for (const FieldStore &S : W.Stores)
      ++Begin[S.Field + 1];
    for (size_t F = 0; F < W.Fields.size(); ++F)
      Begin[F + 1] += Begin[F];
    Order.resize(W.Stores.size());
    for (uint32_t I = 0; I < W.Stores.size(); ++I)
      Order[Begin[W.Stores[I].Field]++] = I;
    // Each field's cursor now sits at the next field's first store.
    for (const FieldLoad &L : W.Loads) {
      for (uint32_t K = L.Field ? Begin[L.Field - 1] : 0; K < Begin[L.Field];
           ++K) {
        const FieldStore &S = W.Stores[Order[K]];
        if (PT.mayAlias(S.Base, L.Base))
          flowInto(S.Events, L.Target);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Function processing
  //===--------------------------------------------------------------------===//

  struct FnContext {
    FunctionSummary *Summary = nullptr;
    /// Names declared `global` in this function: assignments write through
    /// to the module environment.
    ArenaList<std::string_view> Globals;

    bool isGlobal(std::string_view Name) const {
      std::span<const std::string_view> G = Globals.view();
      return std::find(G.begin(), G.end(), Name) != G.end();
    }
  };

  FunctionSummary &summaryOf(const FunctionDefStmt *Fn) {
    auto [Summary, Inserted] = W.Summaries.insert(Fn, nullptr);
    if (Inserted)
      *Summary = new (W.Mem.allocateArray<FunctionSummary>(1))
          FunctionSummary();
    return **Summary;
  }

  /// Processes \p Fn (once), creating its parameter events and recording
  /// its return events. \p Class is the enclosing class for methods.
  FunctionSummary &processFunction(const FunctionDefStmt *Fn,
                                   const pysem::ClassInfo *Class, int Depth) {
    FunctionSummary &Summary = summaryOf(Fn);
    if (Summary.Processed || Summary.InProgress)
      return Summary;
    Summary.InProgress = true;

    // Function scope: module globals visible as of now, parameters bound.
    Env FnEnv(W, ModuleEnv);
    Summary.ParamEvents = makeArray<EventId>(Fn->Params.size());
    for (size_t I = 0; I < Fn->Params.size(); ++I) {
      const Param &P = Fn->Params[I];
      std::span<const std::string_view> Paths =
          paramRootPaths(Fn, Class, P.Name);
      EventId PE = makeEvent(EventKind::FormalParam,
                             Paths.first(Paths.size() - 1), P.Loc);
      Summary.ParamEvents[I] = PE;

      Value V;
      V.Events = one(PE);
      V.Paths = Paths;
      V.PtVar = PT.makeVar();
      if (Class && I == 0) {
        // Every method's `self` denotes the same abstract instance, so
        // fields written in one method are visible in another.
        V.InstanceClass = Class;
        PT.addAlloc(V.PtVar, classInstanceObj(Class));
      } else {
        PT.addAlloc(V.PtVar, PT.makeObj());
      }
      FnEnv.set(P.Name, V);

      if (P.Default)
        evalExpr(P.Default, FnEnv, nullptr, Depth);
    }

    FnContext Ctx;
    Ctx.Summary = &Summary;
    runStmts(Fn->Body, FnEnv, &Ctx, Depth);

    // Decorators observe the function's results (e.g. a route handler's
    // response is consumed by the framework).
    for (const Expr *Dec : Fn->Decorators) {
      Value DV = evalExpr(Dec, *ModuleEnv, nullptr, Depth);
      if (DV.Events.empty())
        continue;
      for (EventId R : Summary.ReturnEvents.view())
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
      std::span<const EventId> Returns = Summary.ReturnEvents.view();
      Exported.Returns.assign(Returns.begin(), Returns.end());
      Artifacts->Exports[Module.ModuleName + "." + std::string(Fn->Name)] =
          std::move(Exported);
    }
    return Summary;
  }

  void processAllRemaining(std::span<Stmt *const> Body,
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

  void runStmts(std::span<Stmt *const> Body, Env &E, FnContext *Fn,
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
        // The name keeps its old events and gains the value's, repeats
        // included; its path no longer renders it.
        const Value *Old = E.find(Name->Id);
        Value New = Old ? *Old : Value();
        EventUnion U(W.EventStack);
        U.append(New.Events);
        U.append(V.Events);
        New.Events = U.copy(W.Mem);
        New.Paths = {};
        New.PureModulePath = false;
        E.set(Name->Id, New);
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
          Fn->Summary->ReturnEvents.push(W.Mem, Id);
      return;
    }
    case NodeKind::If: {
      const auto *I = cast<IfStmt>(S);
      evalExpr(I->Cond, E, Fn, Depth);
      // Both arms start from E as it is now.
      const uint32_t Before = W.Clock;
      Env Then(W, &E), Else(W, &E);
      runStmts(I->Then, Then, Fn, Depth);
      runStmts(I->Else, Else, Fn, Depth);
      mergeBranches(E, Then, Else, Before);
      return;
    }
    case NodeKind::While: {
      const auto *Wh = cast<WhileStmt>(S);
      evalExpr(Wh->Cond, E, Fn, Depth);
      runStmts(Wh->Body, E, Fn, Depth); // Single iteration (§5.2).
      runStmts(Wh->Else, E, Fn, Depth);
      return;
    }
    case NodeKind::For: {
      const auto *F = cast<ForStmt>(S);
      Value Iter = evalExpr(F->Iter, E, Fn, Depth);
      Value Elem;
      Elem.Events = Iter.Events; // Reading an element of a tainted
                                 // collection yields tainted data.
      Elem.PtVar = PT.makeVar();
      if (Iter.PtVar != InvalidPtVar)
        PT.addLoad(Elem.PtVar, Iter.PtVar, ElemField);
      assignTo(F->Target, Elem, E, Fn, Depth);
      runStmts(F->Body, E, Fn, Depth);
      runStmts(F->Else, E, Fn, Depth);
      return;
    }
    case NodeKind::With: {
      const auto *Wi = cast<WithStmt>(S);
      for (const WithItem &Item : Wi->Items) {
        Value Ctx = evalExpr(Item.ContextExpr, E, Fn, Depth);
        if (Item.OptionalVars)
          assignTo(Item.OptionalVars, Ctx, E, Fn, Depth);
      }
      runStmts(Wi->Body, E, Fn, Depth);
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
          E.remove(Name->Id);
      return;
    case NodeKind::Global:
      if (Fn)
        for (std::string_view Name : cast<GlobalStmt>(S)->Names)
          Fn->Globals.push(W.Mem, Name);
      return;
    case NodeKind::FunctionDef:
      // Processed on demand at call sites or in pass 2; nothing flows here.
      return;
    case NodeKind::ClassDef: {
      // Class-body assignments (class attributes) run in a scratch env; the
      // contained method defs are processed on demand / in pass 2.
      const auto *C = cast<ClassDefStmt>(S);
      {
        Env ClassEnv(W, &E);
        for (const Stmt *Member : C->Body)
          if (!isa<FunctionDefStmt>(Member))
            runStmt(Member, ClassEnv, Fn, Depth);
      }
      for (const Expr *Base : C->Bases)
        evalExpr(Base, E, Fn, Depth);
      return;
    }
    case NodeKind::Import:
    case NodeKind::ImportFrom:
      // Imports bind names in the scope's import map, not in the
      // environment; a bound name renders through it (evalName).
      return;
    case NodeKind::Pass:
    case NodeKind::Break:
    case NodeKind::Continue:
      // No dataflow; loops run their body once (§5.2) whatever the jumps.
      return;
    case NodeKind::Name:
    case NodeKind::NumberLit:
    case NodeKind::StringLit:
    case NodeKind::BoolLit:
    case NodeKind::NoneLit:
    case NodeKind::Attribute:
    case NodeKind::Subscript:
    case NodeKind::Slice:
    case NodeKind::Call:
    case NodeKind::Binary:
    case NodeKind::Unary:
    case NodeKind::BoolOp:
    case NodeKind::Compare:
    case NodeKind::List:
    case NodeKind::Tuple:
    case NodeKind::Set:
    case NodeKind::Dict:
    case NodeKind::Lambda:
    case NodeKind::Conditional:
    case NodeKind::Starred:
    case NodeKind::Comprehension:
    case NodeKind::JoinedStr:
    case NodeKind::Yield:
    case NodeKind::Module:
      assert(false && "not a statement");
      return;
    }
  }

  /// Sets \p E to the merge of its two arms, both layered over \p E as it
  /// was at stamp \p Before: a name either arm bound, or unbound, takes
  /// the merge of the two arms' values. A `global` write-through to \p E
  /// during the arms is replaced as well, since the merge stands for the
  /// whole environment.
  void mergeBranches(Env &E, const Env &Then, const Env &Else,
                     uint32_t Before) {
    auto Merge = [&](std::string_view Name) {
      const Value *A = Then.find(Name), *B = Else.find(Name);
      if (!A && !B) {
        E.remove(Name);
        return;
      }
      Value Out = A ? *A : *B;
      if (A && B)
        mergeInto(Out, *B);
      E.set(Name, Out);
    };
    for (const Layer::Entry &Entry : Then.layer())
      Merge(Entry.Key);
    for (const Layer::Entry &Entry : Else.layer())
      if (!Then.bindsHere(Entry.Key))
        Merge(Entry.Key);
    // Merging a name E already holds adds no entry to E's layer.
    for (size_t I = 0; I < E.layer().size(); ++I) {
      const Layer::Entry &Entry = E.layer()[I];
      if (Entry.Value.Stamp > Before && !Then.bindsHere(Entry.Key) &&
          !Else.bindsHere(Entry.Key))
        Merge(Entry.Key);
    }
  }

  /// Merges \p VB into \p VA: the union of their events, and a path,
  /// instance class or points-to variable only where both agree (two
  /// different points-to variables are copied into a fresh one).
  void mergeInto(Value &VA, const Value &VB) {
    VA.Events = unionEvents(VA.Events, VB.Events);
    if (!std::ranges::equal(VA.Paths, VB.Paths)) {
      VA.Paths = {};
      VA.PureModulePath = false;
    }
    if (VA.InstanceClass != VB.InstanceClass)
      VA.InstanceClass = nullptr;
    if (VA.PtVar == InvalidPtVar)
      VA.PtVar = VB.PtVar;
    else if (VB.PtVar != InvalidPtVar && VB.PtVar != VA.PtVar) {
      pointsto::VarId Merged = PT.makeVar();
      PT.addCopy(Merged, VA.PtVar);
      PT.addCopy(Merged, VB.PtVar);
      VA.PtVar = Merged;
    }
  }

  void assignTo(const Expr *Target, const Value &V, Env &E, FnContext *Fn,
                int Depth) {
    switch (Target->kind()) {
    case NodeKind::Name: {
      std::string_view Name = cast<NameExpr>(Target)->Id;
      E.set(Name, V);
      // `global x` makes the assignment visible at module scope, where
      // later-processed functions pick it up through their initial env.
      if (Fn && Fn->isGlobal(Name))
        ModuleEnv->set(Name, V);
      return;
    }
    case NodeKind::Tuple:
    case NodeKind::List: {
      Value Elem;
      Elem.Events = V.Events; // Unpacking spreads the flow (over-approx).
      Elem.PtVar = V.PtVar;
      for (const Expr *T : cast<SequenceExpr>(Target)->Elements)
        assignTo(T, Elem, E, Fn, Depth);
      return;
    }
    case NodeKind::Starred:
      assignTo(cast<StarredExpr>(Target)->Value, V, E, Fn, Depth);
      return;
    case NodeKind::Attribute: {
      const auto *A = cast<AttributeExpr>(Target);
      Value Base = evalExpr(A->Value, E, Fn, Depth);
      recordFieldStore(Base, fieldId(A->Attr), V);
      return;
    }
    case NodeKind::Subscript: {
      const auto *Sub = cast<SubscriptExpr>(Target);
      Value Base = evalExpr(Sub->Value, E, Fn, Depth);
      evalExpr(Sub->Index, E, Fn, Depth);
      recordFieldStore(Base, ElemField, V);
      return;
    }
    case NodeKind::NumberLit:
    case NodeKind::StringLit:
    case NodeKind::BoolLit:
    case NodeKind::NoneLit:
    case NodeKind::Slice:
    case NodeKind::Call:
    case NodeKind::Binary:
    case NodeKind::Unary:
    case NodeKind::BoolOp:
    case NodeKind::Compare:
    case NodeKind::Set:
    case NodeKind::Dict:
    case NodeKind::Lambda:
    case NodeKind::Conditional:
    case NodeKind::Comprehension:
    case NodeKind::JoinedStr:
    case NodeKind::Yield:
      // Not assignable: the parser reports the statement, and nothing is
      // bound or stored.
      return;
    case NodeKind::ExprStmt:
    case NodeKind::Assign:
    case NodeKind::AugAssign:
    case NodeKind::AnnAssign:
    case NodeKind::FunctionDef:
    case NodeKind::ClassDef:
    case NodeKind::Return:
    case NodeKind::If:
    case NodeKind::While:
    case NodeKind::For:
    case NodeKind::Import:
    case NodeKind::ImportFrom:
    case NodeKind::Pass:
    case NodeKind::Break:
    case NodeKind::Continue:
    case NodeKind::With:
    case NodeKind::Try:
    case NodeKind::Raise:
    case NodeKind::Global:
    case NodeKind::Delete:
    case NodeKind::Assert:
    case NodeKind::Module:
      assert(false && "not an expression");
      return;
    }
  }

  void recordFieldStore(Value &Base, pointsto::FieldId Field,
                        const Value &V) {
    if (!Opts.UsePointsTo || V.Events.empty())
      return;
    pointsto::VarId BaseVar = ptVarOf(Base);
    W.Stores.push_back({BaseVar, Field, V.Events});
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
      Out.PtVar = PT.makeVar();
      EventUnion U(W.EventStack);
      for (const Expr *Op : cast<BoolOpExpr>(Ex)->Operands) {
        Value V = evalExpr(Op, E, Fn, Depth);
        U.add(V.Events);
        if (V.PtVar != InvalidPtVar)
          PT.addCopy(Out.PtVar, V.PtVar);
      }
      Out.Events = U.copy(W.Mem);
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
      // Either arm may be the value: like BoolOp, the result may point to
      // whatever either arm points to.
      const auto *C = cast<ConditionalExpr>(Ex);
      evalExpr(C->Cond, E, Fn, Depth);
      Value Out;
      Out.PtVar = PT.makeVar();
      EventUnion U(W.EventStack);
      for (const Expr *Arm : {C->Body, C->OrElse}) {
        Value V = evalExpr(Arm, E, Fn, Depth);
        U.add(V.Events);
        if (V.PtVar != InvalidPtVar)
          PT.addCopy(Out.PtVar, V.PtVar);
      }
      Out.Events = U.copy(W.Mem);
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
      Env Inner(W, &E);
      Value Elem;
      Elem.Events = Iter.Events;
      assignTo(C->Target, Elem, Inner, Fn, Depth);
      if (C->Cond)
        evalExpr(C->Cond, Inner, Fn, Depth);
      if (C->KeyElement)
        evalExpr(C->KeyElement, Inner, Fn, Depth);
      Value Body = evalExpr(C->Element, Inner, Fn, Depth);
      Value Out;
      Out.Events = unionEvents(Body.Events, Iter.Events);
      return Out;
    }
    case NodeKind::JoinedStr: {
      // f-strings propagate every interpolated value (f"q={user_input}").
      EventUnion U(W.EventStack);
      for (const Expr *Part : cast<JoinedStrExpr>(Ex)->Interpolations)
        U.add(evalExpr(Part, E, Fn, Depth).Events);
      Value Out;
      Out.Events = U.copy(W.Mem);
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
            Fn->Summary->ReturnEvents.push(W.Mem, Id);
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
    case NodeKind::NumberLit:
    case NodeKind::StringLit:
    case NodeKind::BoolLit:
    case NodeKind::NoneLit:
      return Value{}; // Literals carry no taint.
    case NodeKind::ExprStmt:
    case NodeKind::Assign:
    case NodeKind::AugAssign:
    case NodeKind::AnnAssign:
    case NodeKind::FunctionDef:
    case NodeKind::ClassDef:
    case NodeKind::Return:
    case NodeKind::If:
    case NodeKind::While:
    case NodeKind::For:
    case NodeKind::Import:
    case NodeKind::ImportFrom:
    case NodeKind::Pass:
    case NodeKind::Break:
    case NodeKind::Continue:
    case NodeKind::With:
    case NodeKind::Try:
    case NodeKind::Raise:
    case NodeKind::Global:
    case NodeKind::Delete:
    case NodeKind::Assert:
    case NodeKind::Module:
      assert(false && "not an expression");
      return Value{};
    }
    return Value{};
  }

  Value evalName(const NameExpr *Name, const Env &E) {
    if (const Value *Bound = E.find(Name->Id))
      return *Bound;
    // Import-bound, or an unknown free name: builtin, star import, or
    // late-bound global.
    Value V;
    V.Paths = one(Scope.imports().resolveRoot(Name->Id).value_or(Name->Id));
    V.PureModulePath = true;
    return V;
  }

  /// Renders a subscript link: "['key']", "[3]", or "[]". The key's text
  /// is escaped so a representation stays one line of printable bytes, as
  /// specs and graph dumps store it: a backslash doubles, newline, tab and
  /// carriage return become \n, \t and \r, any other byte below 0x20 and
  /// 0x7f become \xNN, and every other byte is kept.
  std::string_view subscriptLink(const Expr *Index) {
    if (const auto *S = dyn_cast<StringExpr>(Index)) {
      std::string &Link = W.Text;
      Link.assign("['");
      for (char C : S->Value) {
        switch (C) {
        case '\\': Link += "\\\\"; break;
        case '\n': Link += "\\n"; break;
        case '\t': Link += "\\t"; break;
        case '\r': Link += "\\r"; break;
        default:
          if (static_cast<unsigned char>(C) < 0x20 || C == 0x7f) {
            constexpr char Hex[] = "0123456789abcdef";
            const auto Byte = static_cast<unsigned char>(C);
            Link += "\\x";
            Link += Hex[Byte >> 4];
            Link += Hex[Byte & 0xf];
          } else {
            Link += C;
          }
        }
      }
      Link += "']";
      return W.Mem.copyText(Link);
    }
    if (const auto *N = dyn_cast<NumberExpr>(Index))
      return W.Mem.concat({"[", N->Spelling, "]"});
    return "[]";
  }

  Value evalAttribute(const AttributeExpr *A, Env &E, FnContext *Fn,
                      int Depth, bool BasePosition) {
    Value Base = evalExprCtx(A->Value, E, Fn, Depth, /*BasePosition=*/true);
    Value Out;
    Out.Paths = extendPaths(Base.Paths, ".", A->Attr);
    Out.PureModulePath = Base.PureModulePath;
    Out.InstanceClass = Base.InstanceClass;

    // Pure module-path prefixes (e.g. `os.path` inside `os.path.join`) are
    // paths, not data reads; only the outermost use becomes an event.
    if (BasePosition && Base.PureModulePath && Base.Events.empty())
      return Out;

    EventId Read = makeEvent(EventKind::ObjectRead, Out.Paths, A->loc());
    flowInto(Base.Events, Read);
    Out.Events = one(Read);
    Out.PureModulePath = false;
    Out.InstanceClass = nullptr;
    if (Opts.UsePointsTo) {
      const pointsto::FieldId Field = fieldId(A->Attr);
      Out.PtVar = PT.makeVar();
      if (Base.PtVar != InvalidPtVar)
        PT.addLoad(Out.PtVar, Base.PtVar, Field);
      W.Loads.push_back({ptVarOf(Base), Field, Read});
    }
    return Out;
  }

  Value evalSubscript(const SubscriptExpr *S, Env &E, FnContext *Fn,
                      int Depth) {
    Value Base = evalExprCtx(S->Value, E, Fn, Depth, /*BasePosition=*/true);
    evalExpr(S->Index, E, Fn, Depth);
    Value Out;
    Out.Paths = extendPaths(Base.Paths, subscriptLink(S->Index));

    EventId Read = makeEvent(EventKind::ObjectRead, Out.Paths, S->loc());
    flowInto(Base.Events, Read);
    Out.Events = one(Read);
    if (Opts.UsePointsTo) {
      Out.PtVar = PT.makeVar();
      if (Base.PtVar != InvalidPtVar)
        PT.addLoad(Out.PtVar, Base.PtVar, ElemField);
      W.Loads.push_back({ptVarOf(Base), ElemField, Read});
    }
    return Out;
  }

  Value evalDisplay(const Expr *Ex, Env &E, FnContext *Fn, int Depth) {
    // Containers: information flows from every entry to the container
    // (§5.2, Data Structures), keys before values.
    Value Out;
    if (Opts.UsePointsTo) {
      Out.PtVar = PT.makeVar();
      PT.addAlloc(Out.PtVar, PT.makeObj());
    }
    EventUnion U(W.EventStack);
    auto Part = [&](const Expr *P) {
      Value V = evalExpr(P, E, Fn, Depth);
      U.add(V.Events);
      if (Opts.UsePointsTo && V.PtVar != InvalidPtVar)
        PT.addStore(Out.PtVar, ElemField, V.PtVar);
    };
    if (const auto *S = dyn_cast<SequenceExpr>(Ex))
      for (const Expr *P : S->Elements)
        Part(P);
    if (const auto *D = dyn_cast<DictExpr>(Ex)) {
      for (const Expr *K : D->Keys)
        if (K)
          Part(K);
      for (const Expr *V : D->Values)
        Part(V);
    }
    Out.Events = U.copy(W.Mem);
    return Out;
  }

  /// A keyword argument's name and value.
  struct KeywordValue {
    std::string_view Name;
    Value V;
  };

  Value evalCall(const CallExpr *C, Env &E, FnContext *Fn, int Depth) {
    // Evaluate arguments first.
    std::span<Value> Args = makeArray<Value>(C->Args.size());
    for (size_t I = 0; I < Args.size(); ++I)
      Args[I] = evalExpr(C->Args[I], E, Fn, Depth);
    std::span<KeywordValue> Kws =
        makeArray<KeywordValue>(C->Keywords.size());
    for (size_t I = 0; I < Kws.size(); ++I)
      Kws[I] = {C->Keywords[I].Name,
                evalExpr(C->Keywords[I].Value, E, Fn, Depth)};

    // Identify the callee target and render representation options.
    Value Receiver; // For method calls: the object flowed through.
    std::span<const std::string_view> RepOptions;
    // Import-resolved callee, kept only for project-level linking.
    std::string_view CrossModuleTarget;
    const FunctionDefStmt *LocalTarget = nullptr;
    const pysem::ClassInfo *LocalTargetClass = nullptr;
    const pysem::ClassInfo *ConstructedClass = nullptr;
    bool CalleeIsLocals = false;

    if (const auto *Name = dyn_cast<NameExpr>(C->Callee)) {
      std::string_view Id = Name->Id;
      if (const Value *Bound = E.find(Id)) {
        // Calling a local variable (bound lambda / aliased function).
        Receiver = *Bound;
        RepOptions = extendPaths(Bound->Paths, "()");
      } else if (const FunctionDefStmt *Local = Scope.lookupFunction(Id)) {
        LocalTarget = Local;
        RepOptions = localCallOptions(Id);
      } else if (const pysem::ClassInfo *Cls = Scope.lookupClass(Id)) {
        ConstructedClass = Cls;
        RepOptions = localCallOptions(Id);
      } else if (std::optional<std::string_view> Qual =
                     Scope.imports().resolveRoot(Id)) {
        RepOptions = one(W.Mem.concat({*Qual, "()"}));
        if (Artifacts)
          CrossModuleTarget = *Qual;
      } else {
        if (Opts.ModelLocals && Id == "locals")
          CalleeIsLocals = true;
        RepOptions = one(W.Mem.concat({Id, "()"}));
      }
    } else if (const auto *Attr = dyn_cast<AttributeExpr>(C->Callee)) {
      Receiver = evalExprCtx(Attr->Value, E, Fn, Depth, /*BasePosition=*/true);
      RepOptions = extendPaths(Receiver.Paths, ".", Attr->Attr, "()");
      if (Artifacts && Receiver.PureModulePath && Receiver.Paths.size() == 1)
        CrossModuleTarget =
            W.Mem.concat({Receiver.Paths.front(), ".", Attr->Attr});
      // Method call on a known same-module instance (including `self`).
      if (Receiver.InstanceClass) {
        LocalTarget = pysem::ModuleScope::lookupMethod(Receiver.InstanceClass,
                                                       Attr->Attr);
        LocalTargetClass = Receiver.InstanceClass;
      }
    } else {
      Receiver = evalExprCtx(C->Callee, E, Fn, Depth, /*BasePosition=*/true);
      RepOptions = extendPaths(Receiver.Paths, "()");
    }

    EventId Call = makeEvent(EventKind::Call, RepOptions, C->loc());

    // When project-level linking will try to resolve this call, defer the
    // direct argument edges: a linked call routes its arguments through
    // the callee's parameters instead (falling back to direct edges when
    // no project module exports the target).
    const bool Linked = !CrossModuleTarget.empty() && !Opts.ArgPositionReps;
    bool DeferArgEdges = Linked;
    // Precise inlining: a successfully inlined same-module call likewise
    // routes flow only through the callee's body.
    if (Opts.PreciseInlining && !Opts.ArgPositionReps &&
        Depth < MaxInlineDepth) {
      const FunctionDefStmt *Probe = LocalTarget;
      if (!Probe && ConstructedClass)
        Probe = ConstructedClass->method("__init__");
      if (Probe) {
        FunctionSummary *const *Summary = W.Summaries.find(Probe);
        // Only defer when the summary is (or will be) usable: a function
        // currently being processed (recursion) keeps direct edges.
        if (!Summary || !(*Summary)->InProgress)
          DeferArgEdges = true;
      }
    }

    // Arguments and the receiver flow into the call (§5.2). In
    // argument-position-sensitive mode each argument is interposed with
    // its own sink-candidate event (paper §3.3's future work).
    if (DeferArgEdges) {
      // Edges added by the linking pass in buildProjectGraph.
    } else if (Opts.ArgPositionReps) {
      auto MakeArgEvent = [&](std::string_view Slot,
                              std::span<const EventId> Events) {
        EventId AE = makeEvent(EventKind::CallArgument,
                               extendPaths(RepOptions, Slot), C->loc());
        flowInto(Events, AE);
        addEdge(AE, Call);
      };
      for (size_t I = 0; I < Args.size(); ++I) {
        if (Args[I].Events.empty())
          continue;
        char Digits[24];
        auto [End, Ec] = std::to_chars(Digits, Digits + sizeof(Digits), I);
        (void)Ec;
        MakeArgEvent(W.Mem.concat({"[arg", {Digits, End}, "]"}),
                     Args[I].Events);
      }
      for (const KeywordValue &K : Kws)
        if (!K.V.Events.empty())
          MakeArgEvent(K.Name.empty() ? std::string_view("[kwargs]")
                                      : W.Mem.concat({"[kw:", K.Name, "]"}),
                       K.V.Events);
    } else {
      for (const Value &AV : Args)
        flowInto(AV.Events, Call);
      for (const KeywordValue &K : Kws)
        flowInto(K.V.Events, Call);
    }
    flowInto(Receiver.Events, Call);

    if (CalleeIsLocals) {
      // locals() receives flow from every local variable (§5.2).
      E.forEachBound([&](std::string_view, const Value &V) {
        flowInto(V.Events, Call);
      });
    }

    if (Linked) {
      ModuleArtifacts::CallSite Site;
      Site.Target = CrossModuleTarget;
      std::string_view Name = Module.ModuleName;
      const size_t Dot = Name.rfind('.');
      Site.CallerPackage = Dot == std::string_view::npos
                               ? std::string_view()
                               : Name.substr(0, Dot);
      Site.Call = Call;
      for (const Value &AV : Args)
        Site.Args.emplace_back(AV.Events.begin(), AV.Events.end());
      for (const KeywordValue &K : Kws)
        Site.Kwargs.emplace_back(
            std::string(K.Name),
            std::vector<EventId>(K.V.Events.begin(), K.V.Events.end()));
      Artifacts->Calls.push_back(std::move(Site));
    }

    // Same-module inlining: wire arguments to parameter events and returns
    // back to the call event (§5.2, Inlining Methods).
    const FunctionDefStmt *InlineFn = LocalTarget;
    const pysem::ClassInfo *InlineClass = LocalTargetClass;
    if (!InlineFn && ConstructedClass) {
      if (const FunctionDefStmt *Init = ConstructedClass->method("__init__")) {
        InlineFn = Init;
        InlineClass = ConstructedClass;
      }
    }
    bool InlinedPrecisely = false;
    if (InlineFn && Depth < MaxInlineDepth) {
      FunctionSummary &Summary =
          processFunction(InlineFn, InlineClass, Depth + 1);
      if (Summary.Processed) {
        InlinedPrecisely = true;
        // Positional arguments: methods get the receiver as `self`.
        size_t ParamBase = InlineClass ? 1 : 0;
        if (InlineClass && !Summary.ParamEvents.empty())
          flowInto(Receiver.Events, Summary.ParamEvents[0]);
        for (size_t I = 0; I < Args.size(); ++I) {
          size_t ParamIdx = ParamBase + I;
          if (ParamIdx >= Summary.ParamEvents.size())
            break;
          flowInto(Args[I].Events, Summary.ParamEvents[ParamIdx]);
        }
        for (const KeywordValue &K : Kws) {
          for (size_t P = 0; P < InlineFn->Params.size(); ++P)
            if (InlineFn->Params[P].Name == K.Name)
              flowInto(K.V.Events, Summary.ParamEvents[P]);
        }
        for (EventId R : Summary.ReturnEvents.view())
          addEdge(R, Call);
      }
    }
    if (Opts.PreciseInlining && !InlinedPrecisely && DeferArgEdges &&
        !Linked) {
      // Precise-inlining deferral without a usable summary: restore the
      // §5.2 direct edges.
      for (const Value &AV : Args)
        flowInto(AV.Events, Call);
      for (const KeywordValue &K : Kws)
        flowInto(K.V.Events, Call);
    }

    // The path of a call result is the call rendering itself (the "()" is
    // already part of each option).
    Value Out;
    Out.Events = one(Call);
    Out.Paths = RepOptions;
    Out.InstanceClass = ConstructedClass;
    if (Opts.UsePointsTo) {
      // Calls with unknown bodies are allocation sites (§5.2); local
      // constructors yield the class's shared abstract instance.
      Out.PtVar = PT.makeVar();
      PT.addAlloc(Out.PtVar, ConstructedClass
                                 ? classInstanceObj(ConstructedClass)
                                 : PT.makeObj());
    }
    return Out;
  }

  /// A same-module function's or class's call options: the qualified
  /// rendering, then the local one.
  std::span<const std::string_view> localCallOptions(std::string_view Name) {
    auto *Out = W.Mem.allocateArray<std::string_view>(2);
    Out[0] = W.Mem.concat({Module.ModuleName, ".", Name, "()"});
    Out[1] = W.Mem.concat({Name, "()"});
    return {Out, 2};
  }

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  Workspace &W;
  const pysem::ModuleInfo &Module;
  const ModuleNode *Ast;
  const BuildOptions &Opts;
  ModuleArtifacts *Artifacts = nullptr;
  pysem::ModuleScope &Scope;
  pointsto::AndersenSolver &PT;
  PropagationGraph &Graph;
  uint32_t FileIdx = 0;
  /// The field a container's elements share.
  pointsto::FieldId ElemField = 0;
  /// The module's environment while the walk runs.
  Env *ModuleEnv = nullptr;
};

/// Lexes and parses \p Module into \p Ctx (parseSource times the two
/// apart) and counts it in parse.files (safe from concurrent project
/// builds).
const ModuleNode *parseModule(AstContext &Ctx, const pysem::ModuleInfo &Module,
                              std::vector<ParseError> *Diagnostics) {
  const ModuleNode *Ast = parseSource(Ctx, Module.Source, Diagnostics);
  metrics::Registry &Reg = metrics::Registry::global();
  if (Reg.enabled())
    Reg.counter("parse.files").add();
  return Ast;
}

/// Parses \p Module and builds it into \p Graph; the AST dies with this
/// frame.
void buildOne(Workspace &W, const pysem::ModuleInfo &Module,
              const BuildOptions &Opts, PropagationGraph &Graph,
              std::vector<ParseError> *Diagnostics,
              ModuleArtifacts *Artifacts = nullptr) {
  AstContext Ctx;
  ModuleGraphBuilder(W, Module, parseModule(Ctx, Module, Diagnostics), Opts,
                     Graph, Artifacts)
      .build();
}

} // namespace

PropagationGraph
seldon::propgraph::buildModuleGraph(const pysem::Project &Proj,
                                    const pysem::ModuleInfo &Module,
                                    const BuildOptions &Opts,
                                    std::vector<ParseError> *Diagnostics) {
  (void)Proj; // Cross-module resolution is per-file in this reproduction.
  Workspace &W = workspace();
  W.Edges.clear();
  PropagationGraph Graph;
  buildOne(W, Module, Opts, Graph, Diagnostics);
  // The module is complete: its adjacency is built once.
  Graph.addEdges(W.Edges);
  return Graph;
}

PropagationGraph
seldon::propgraph::buildProjectGraph(const pysem::Project &Proj,
                                     const BuildOptions &Opts,
                                     std::vector<ParseError> *Diagnostics) {
  Workspace &W = workspace();
  W.Edges.clear();
  PropagationGraph Out;
  // Beyond-paper mode: link calls to project-local modules. Every module
  // exports its top-level functions and cross-module call sites, then
  // arguments are wired to parameters and returns to calls.
  ModuleArtifacts Linked;
  for (const pysem::ModuleInfo &M : Proj.modules()) {
    if (!Opts.CrossModuleFlows) {
      buildOne(W, M, Opts, Out, Diagnostics);
      continue;
    }
    ModuleArtifacts Artifacts;
    buildOne(W, M, Opts, Out, Diagnostics, &Artifacts);
    for (auto &[Name, Fn] : Artifacts.Exports)
      Linked.Exports.emplace(Name, std::move(Fn));
    for (auto &Site : Artifacts.Calls)
      Linked.Calls.push_back(std::move(Site));
  }

  // The modules' edges grouped by source, each source's in walk order, so
  // every event's predecessors list their sources in id order.
  const size_t N = Out.numEvents();
  W.SourceBegin.assign(N + 1, 0);
  for (const Edge &E : W.Edges)
    ++W.SourceBegin[E.From + 1];
  for (size_t V = 0; V < N; ++V)
    W.SourceBegin[V + 1] += W.SourceBegin[V];
  W.BySource.resize(W.Edges.size());
  for (const Edge &E : W.Edges)
    W.BySource[W.SourceBegin[E.From]++] = E;
  Out.addEdges(W.BySource);
  if (!Opts.CrossModuleFlows)
    return Out;

  std::vector<Edge> Links;
  for (const ModuleArtifacts::CallSite &Site : Linked.Calls) {
    auto It = Linked.Exports.find(Site.Target);
    if (It == Linked.Exports.end() && !Site.CallerPackage.empty())
      // `from utils import f` inside pkg.app resolves to pkg.utils.f.
      It = Linked.Exports.find(std::string(Site.CallerPackage) + "." +
                               Site.Target);
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
