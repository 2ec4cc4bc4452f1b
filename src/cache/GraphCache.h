//===- cache/GraphCache.h - Persistent propagation-graph cache ---*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An on-disk cache of per-project propagation graphs. The §5 frontend is
/// deterministic per project, so on a big-code corpus repeated inference
/// runs only need to pay for projects whose sources (or build options)
/// changed — the same idea InspectJS and explicit-data-dependency taint
/// trackers use when they persist intermediate flow representations.
///
/// Keying / invalidation: an entry is addressed by a 64-bit FNV-1a hash of
/// the codec format version, the builder's rules version
/// (propgraph::GraphBuilderVersion), the inlining bound
/// (propgraph::MaxInlineDepth), every propgraph::BuildOptions field, and
/// each module's path and full source text (all length-prefixed). Any
/// change to any of these produces a different key, so stale entries are
/// never *hit* — they simply become garbage that a later sweep may remove.
///
/// Storage, failure discipline and concurrency are cache/EntryStore.h's:
/// a corrupt entry is evicted and reported as a miss, stores are atomic
/// even across processes, and a load never yields a partially-populated
/// graph (see propgraph/GraphCodec.h).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CACHE_GRAPHCACHE_H
#define SELDON_CACHE_GRAPHCACHE_H

#include "cache/EntryStore.h"
#include "propgraph/GraphBuilder.h"
#include "propgraph/GraphCodec.h"
#include "pysem/Project.h"

#include <string>

namespace seldon {
namespace cache {

/// Computes the cache key of \p Proj under \p Opts. Deterministic in the
/// module list (paths + sources, in order), the codec and builder versions,
/// the inlining bound and every BuildOptions field; independent of the
/// project's display name and on-disk location.
CacheKey projectCacheKey(const pysem::Project &Proj,
                         const propgraph::BuildOptions &Opts);

/// The on-disk graph store: "<key>.spg" entries in one directory.
class GraphCache
    : public CodecStore<propgraph::PropagationGraph, propgraph::encodeGraph,
                        propgraph::decodeGraph> {
public:
  explicit GraphCache(std::string Dir);
};

} // namespace cache
} // namespace seldon

#endif // SELDON_CACHE_GRAPHCACHE_H
