//===- cache/GraphCache.cpp - Persistent propagation-graph cache ----------===//

#include "cache/GraphCache.h"

#include "support/BinaryCodec.h"

using namespace seldon;
using namespace seldon::cache;

using codec::hashChunk;
using codec::hashValue;

CacheKey seldon::cache::projectCacheKey(const pysem::Project &Proj,
                                        const propgraph::BuildOptions &Opts) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  hashChunk(Hash, "seldon-graph-cache");
  hashValue(Hash, propgraph::GraphCodecVersion);
  hashValue(Hash, propgraph::GraphBuilderVersion);

  // The inlining bound and every frontend knob participate: changing any
  // of them must rebuild.
  hashValue(Hash, static_cast<uint64_t>(propgraph::MaxInlineDepth));
  hashValue(Hash, Opts.ModelLocals);
  hashValue(Hash, Opts.UsePointsTo);
  hashValue(Hash, Opts.ArgPositionReps);
  hashValue(Hash, Opts.PreciseInlining);
  hashValue(Hash, Opts.CrossModuleFlows);

  hashValue(Hash, Proj.modules().size());
  for (const pysem::ModuleInfo &M : Proj.modules()) {
    hashChunk(Hash, M.Path);
    hashChunk(Hash, M.Source);
  }
  return CacheKey{Hash};
}

GraphCache::GraphCache(std::string Dir)
    : CodecStore(std::move(Dir), {".spg", "cache", "cache"}) {}
