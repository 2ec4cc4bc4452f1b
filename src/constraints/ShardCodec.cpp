//===- constraints/ShardCodec.cpp - Binary shard serialization ------------===//

#include "constraints/ShardCodec.h"

#include "support/BinaryCodec.h"
#include "support/StrUtil.h"

using namespace seldon;
using namespace seldon::constraints;
using codec::ByteReader;
using codec::putString;
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
  putVarint(Payload, Shard.Strings.size());
  for (const std::string &Text : Shard.Strings)
    putString(Payload, Text);

  putVarint(Payload, Shard.Events.size());
  for (const ShardEvent &E : Shard.Events) {
    putVarint(Payload, E.Reps.size());
    for (ShardStrId S : E.Reps)
      putVarint(Payload, S);
  }

  putVarint(Payload, Shard.Files.size());
  for (const ShardFile &File : Shard.Files) {
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

/// Reads a list of event ids, validating each against \p NumEvents.
std::vector<ShardEventId> getEventList(ByteReader &Reader, size_t NumEvents,
                                       const char *What) {
  std::vector<ShardEventId> Out;
  uint64_t Count = Reader.getCount(What);
  for (uint64_t I = 0; Reader.ok() && I < Count; ++I) {
    uint64_t Id = Reader.getVarint(What);
    if (!Reader.ok())
      break;
    if (Id >= NumEvents) {
      Reader.fail(formatString("%s event id %llu out of range (%zu "
                               "event(s))",
                               What, static_cast<unsigned long long>(Id),
                               NumEvents));
      break;
    }
    Out.push_back(static_cast<ShardEventId>(Id));
  }
  return Out;
}

/// Reads the payload encodePayload() wrote; failures land in \p Reader.
ConstraintShard readPayload(ByteReader &Reader) {
  // Integrity-checked; remaining failures are structural (a corrupt
  // encoder or version-1 layout drift) and still reported descriptively
  // rather than trusted.
  ConstraintShard Shard;

  uint64_t NumStrings = Reader.getCount("string count");
  Shard.Strings.reserve(NumStrings);
  for (uint64_t I = 0; Reader.ok() && I < NumStrings; ++I) {
    std::string_view Text = Reader.getString("representation string");
    if (Reader.ok())
      Shard.Strings.emplace_back(Text);
  }

  uint64_t NumEvents = Reader.getCount("event count");
  Shard.Events.reserve(NumEvents);
  for (uint64_t I = 0; Reader.ok() && I < NumEvents; ++I) {
    uint64_t NumReps = Reader.getCount("event rep count");
    if (!Reader.ok())
      break;
    if (NumReps == 0) {
      Reader.fail("shard event with no representations");
      break;
    }
    ShardEvent E;
    E.Reps.reserve(NumReps);
    for (uint64_t R = 0; Reader.ok() && R < NumReps; ++R) {
      uint64_t S = Reader.getVarint("event rep string id");
      if (!Reader.ok())
        break;
      if (S >= Shard.Strings.size()) {
        Reader.fail(formatString(
            "rep string id %llu out of range (%zu string(s))",
            static_cast<unsigned long long>(S), Shard.Strings.size()));
        break;
      }
      E.Reps.push_back(static_cast<ShardStrId>(S));
    }
    if (Reader.ok())
      Shard.Events.push_back(std::move(E));
  }

  auto CheckEvent = [&](uint64_t Id, const char *What) -> bool {
    if (Id < Shard.Events.size())
      return true;
    Reader.fail(formatString("%s event id %llu out of range (%zu "
                             "event(s))",
                             What, static_cast<unsigned long long>(Id),
                             Shard.Events.size()));
    return false;
  };

  uint64_t NumFiles = Reader.getCount("file count");
  Shard.Files.reserve(NumFiles);
  for (uint64_t F = 0; Reader.ok() && F < NumFiles; ++F) {
    ShardFile File;
    uint64_t NumSan = Reader.getCount("sanitizer anchor count");
    for (uint64_t I = 0; Reader.ok() && I < NumSan; ++I) {
      ShardSanAnchor A;
      uint64_t San = Reader.getVarint("sanitizer anchor");
      if (!Reader.ok() || !CheckEvent(San, "sanitizer anchor"))
        break;
      A.San = static_cast<ShardEventId>(San);
      A.SourcesBefore =
          getEventList(Reader, Shard.Events.size(), "sources-before");
      A.SinksAfter =
          getEventList(Reader, Shard.Events.size(), "sinks-after");
      if (!Reader.ok())
        break;
      if (A.SourcesBefore.empty() && A.SinksAfter.empty()) {
        Reader.fail("empty sanitizer anchor");
        break;
      }
      File.SanAnchors.push_back(std::move(A));
    }
    uint64_t NumSrc = Reader.getCount("source anchor count");
    for (uint64_t I = 0; Reader.ok() && I < NumSrc; ++I) {
      ShardSrcAnchor A;
      uint64_t Src = Reader.getVarint("source anchor");
      if (!Reader.ok() || !CheckEvent(Src, "source anchor"))
        break;
      A.Src = static_cast<ShardEventId>(Src);
      uint64_t NumPairs = Reader.getCount("pair count");
      if (!Reader.ok())
        break;
      if (NumPairs == 0) {
        Reader.fail("source anchor with no pairs");
        break;
      }
      for (uint64_t P = 0; Reader.ok() && P < NumPairs; ++P) {
        ShardSrcPair Pair;
        uint64_t Snk = Reader.getVarint("pair sink");
        if (!Reader.ok() || !CheckEvent(Snk, "pair sink"))
          break;
        Pair.Snk = static_cast<ShardEventId>(Snk);
        Pair.Mids = getEventList(Reader, Shard.Events.size(), "pair mid");
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
