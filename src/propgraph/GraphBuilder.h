//===- propgraph/GraphBuilder.h - AST -> propagation graph -------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the propagation graph of a Python module (paper §5):
///
///  * events are function calls, object reads (attribute loads, subscripts)
///    and formal parameters (§5.1);
///  * calls propagate information from arguments (and the receiver) to
///    their result (§5.2);
///  * same-module functions and methods are "inlined": call arguments flow
///    into the callee's formal-parameter events and the callee's returned
///    events flow back into the call event (§5.2, Inlining Methods);
///  * collections propagate element flows to the whole container, and
///    `locals()` receives flow from every local variable (§5.2);
///  * loops are processed as a single iteration, keeping graphs acyclic;
///  * an Andersen points-to analysis connects attribute/subscript stores to
///    aliasing loads (§5.2, Points-to Analysis);
///  * every event carries representation options from most specific to
///    least specific, with class-based backoff for parameter-rooted paths
///    (§3.2: `ESCPOSDriver::status(param self).receipt()`,
///    `base.ThreadDriver::status(param self).receipt()`,
///    `status(param self).receipt()`, `self.receipt()`).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_PROPGRAPH_GRAPHBUILDER_H
#define SELDON_PROPGRAPH_GRAPHBUILDER_H

#include "propgraph/PropagationGraph.h"
#include "pyast/Parser.h"
#include "pysem/Project.h"

#include <vector>

namespace seldon {
namespace propgraph {

/// Version of the builder's rules: how events, representations and edges
/// are derived from source. Bump it whenever a rule change alters the
/// graph built from the same source; graph-cache keys include it, so
/// graphs cached under the old rules miss once and are rebuilt.
/// Version 2 escapes control bytes and backslashes in subscript keys.
/// Version 3 lexes a non-ASCII identifier as one name and treats a
/// backslash before CRLF as one before LF: a line continuation, in code
/// and inside a string literal. Version 4 keeps a backslash-escaped quote
/// inside a raw string, and reads an f-string `=` debug field with
/// whitespace after the `=` (`f'{x = }'`). Version 5 parses `async def`,
/// `async for`, `async with` and `await E` as their plain forms, and a
/// comprehension with several `for` and `if` clauses. Version 6 gives a
/// conditional expression the points-to targets of both its arms.
inline constexpr uint32_t GraphBuilderVersion = 6;

/// Maximum depth of on-demand same-module inlining (paper: context bound of
/// 8 method calls).
inline constexpr int MaxInlineDepth = 8;

/// Tunables of the graph construction.
struct BuildOptions {
  /// Model the `locals()` builtin (§5.2).
  bool ModelLocals = true;
  /// Run the Andersen points-to pass to connect field stores to aliasing
  /// loads. Disabling it keeps only direct dataflow (used by ablations).
  bool UsePointsTo = true;
  /// Argument-position-sensitive mode: each call argument becomes its own
  /// sink-candidate event with representation `f()[arg0]` / `f()[kw:name]`,
  /// so an API can be a sink in one parameter and harmless in another —
  /// the differentiation paper §3.3 leaves as future work.
  bool ArgPositionReps = false;
  /// When a same-module call is inlined, drop the direct argument-to-call
  /// edges so flow routes exclusively through the callee's body. The paper
  /// keeps both (a call always propagates its arguments to its result,
  /// §5.2), which makes local sanitizer wrappers opaque to the analyzer
  /// until they are *learned*; this beyond-paper mode lets a seeded
  /// sanitizer inside a local wrapper suppress reports directly.
  bool PreciseInlining = false;
  /// Resolve calls to functions defined in *other modules of the same
  /// project* (`from utils import scrub`), wiring arguments to the
  /// callee's parameter events and returns back to the call. The paper
  /// treats all imported methods as having unknown bodies (§5.2); this
  /// beyond-paper mode recovers flows through project-local helper
  /// modules. Only affects buildProjectGraph.
  bool CrossModuleFlows = false;
};

/// Builds the propagation graph of one module of \p Proj. The graph
/// contains exactly one file entry.
///
/// The module's source is lexed and parsed into an AST that lives only
/// for this call; this is the pipeline's one parse site, so the
/// parse.files / parse.file_seconds metrics count real parses. Lexer and
/// parser diagnostics are appended to \p Diagnostics (may be null).
PropagationGraph
buildModuleGraph(const pysem::Project &Proj, const pysem::ModuleInfo &Module,
                 const BuildOptions &Opts = BuildOptions(),
                 std::vector<pyast::ParseError> *Diagnostics = nullptr);

/// Builds one graph covering every module of \p Proj (per-module subgraphs
/// are disjoint, as in the paper's global graph). Each module is parsed as
/// in buildModuleGraph and built straight into the graph, and its AST is
/// freed once its events and edges are made; the diagnostics of every
/// module are appended to \p Diagnostics (may be null) in module order.
PropagationGraph
buildProjectGraph(const pysem::Project &Proj,
                  const BuildOptions &Opts = BuildOptions(),
                  std::vector<pyast::ParseError> *Diagnostics = nullptr);

} // namespace propgraph
} // namespace seldon

#endif // SELDON_PROPGRAPH_GRAPHBUILDER_H
