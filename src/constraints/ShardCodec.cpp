//===- constraints/ShardCodec.cpp - Binary shard serialization ------------===//

#include "constraints/ShardCodec.h"

#include "support/BinaryCodec.h"
#include "support/StrUtil.h"

#include <limits>

using namespace seldon;
using namespace seldon::constraints;
using codec::ByteReader;
using codec::putVarint;

namespace {

constexpr codec::FrameFormat Format{"SCSH", ShardCodecVersion,
                                   "constraint shard"};

void putEventList(std::string &Out, const std::vector<ShardEventId> &Ids) {
  putVarint(Out, Ids.size());
  for (ShardEventId Id : Ids)
    putVarint(Out, Id);
}

std::string encodePayload(const ConstraintShard &Shard) {
  std::string Payload;
  putVarint(Payload, Shard.Files.size());
  for (const ShardFile &File : Shard.Files) {
    putVarint(Payload, File.NumEvents);
    putVarint(Payload, File.SanAnchors.size());
    for (const ShardSanAnchor &A : File.SanAnchors) {
      putVarint(Payload, A.San);
      putEventList(Payload, A.SourcesBefore);
      putEventList(Payload, A.SinksAfter);
    }
    putVarint(Payload, File.SrcAnchors.size());
    for (const ShardSrcAnchor &A : File.SrcAnchors) {
      putVarint(Payload, A.Src);
      putVarint(Payload, A.Pairs.size());
      for (const ShardSrcPair &P : A.Pairs) {
        putVarint(Payload, P.Snk);
        putEventList(Payload, P.Mids);
      }
    }
  }
  return Payload;
}

/// Reads one event id, failing unless it is below \p NumEvents.
ShardEventId getEventId(ByteReader &Reader, uint32_t NumEvents,
                        const char *What) {
  uint64_t Id = Reader.getVarint(What);
  if (Reader.ok() && Id >= NumEvents)
    Reader.fail(formatString("%s event id %llu out of range (%u event(s))",
                             What, static_cast<unsigned long long>(Id),
                             NumEvents));
  return Reader.ok() ? static_cast<ShardEventId>(Id) : 0;
}

/// Reads a list of event ids, each below \p NumEvents.
std::vector<ShardEventId> getEventList(ByteReader &Reader, uint32_t NumEvents,
                                       const char *What) {
  std::vector<ShardEventId> Out;
  uint64_t Count = Reader.getCount(What);
  for (uint64_t I = 0; Reader.ok() && I < Count; ++I) {
    ShardEventId Id = getEventId(Reader, NumEvents, What);
    if (Reader.ok())
      Out.push_back(Id);
  }
  return Out;
}

/// Reads the payload encodePayload() wrote; failures land in \p Reader.
ConstraintShard readPayload(ByteReader &Reader) {
  // Integrity-checked; remaining failures are structural (a corrupt
  // encoder or layout drift within a version) and still reported
  // descriptively rather than trusted.
  ConstraintShard Shard;
  uint64_t NumFiles = Reader.getCount("file count");
  Shard.Files.reserve(NumFiles);
  for (uint64_t F = 0; Reader.ok() && F < NumFiles; ++F) {
    ShardFile File;
    uint64_t NumEvents = Reader.getVarint("file event count");
    if (Reader.ok() && NumEvents > std::numeric_limits<uint32_t>::max())
      Reader.fail(formatString("file event count %llu out of range",
                               static_cast<unsigned long long>(NumEvents)));
    File.NumEvents = static_cast<uint32_t>(NumEvents);

    uint64_t NumSan = Reader.getCount("sanitizer anchor count");
    for (uint64_t I = 0; Reader.ok() && I < NumSan; ++I) {
      ShardSanAnchor A;
      A.San = getEventId(Reader, File.NumEvents, "sanitizer anchor");
      A.SourcesBefore =
          getEventList(Reader, File.NumEvents, "sources-before");
      A.SinksAfter = getEventList(Reader, File.NumEvents, "sinks-after");
      if (Reader.ok() && A.SourcesBefore.empty() && A.SinksAfter.empty())
        Reader.fail("empty sanitizer anchor");
      if (Reader.ok())
        File.SanAnchors.push_back(std::move(A));
    }
    uint64_t NumSrc = Reader.getCount("source anchor count");
    for (uint64_t I = 0; Reader.ok() && I < NumSrc; ++I) {
      ShardSrcAnchor A;
      A.Src = getEventId(Reader, File.NumEvents, "source anchor");
      uint64_t NumPairs = Reader.getCount("pair count");
      if (Reader.ok() && NumPairs == 0)
        Reader.fail("source anchor with no pairs");
      for (uint64_t P = 0; Reader.ok() && P < NumPairs; ++P) {
        ShardSrcPair Pair;
        Pair.Snk = getEventId(Reader, File.NumEvents, "pair sink");
        Pair.Mids = getEventList(Reader, File.NumEvents, "pair mid");
        if (Reader.ok())
          A.Pairs.push_back(std::move(Pair));
      }
      if (Reader.ok())
        File.SrcAnchors.push_back(std::move(A));
    }
    if (Reader.ok())
      Shard.Files.push_back(std::move(File));
  }
  return Shard;
}

} // namespace

std::string seldon::constraints::encodeShard(const ConstraintShard &Shard) {
  return codec::encodeFrame(Format, encodePayload(Shard));
}

io::IOResult<ConstraintShard>
seldon::constraints::decodeShard(std::string_view Bytes) {
  return codec::decodeFrame(Bytes, Format, readPayload);
}
