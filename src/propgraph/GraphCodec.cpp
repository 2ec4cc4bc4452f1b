//===- propgraph/GraphCodec.cpp - Binary graph serialization --------------===//

#include "propgraph/GraphCodec.h"

#include "support/BinaryCodec.h"
#include "support/StrUtil.h"

using namespace seldon;
using namespace seldon::propgraph;
using codec::ByteReader;
using codec::putString;
using codec::putVarint;

namespace {

constexpr codec::FrameFormat Format{"SPGC", GraphCodecVersion,
                                   "propagation graph"};

std::string encodePayload(const PropagationGraph &Graph) {
  std::string Payload;
  putVarint(Payload, Graph.files().size());
  for (const std::string &File : Graph.files())
    putString(Payload, File);

  putVarint(Payload, Graph.numEvents());
  for (const Event &E : Graph.events()) {
    Payload.push_back(static_cast<char>(E.Kind));
    Payload.push_back(static_cast<char>(E.Candidates));
    putVarint(Payload, E.FileIdx);
    putVarint(Payload, E.Loc.Line);
    putVarint(Payload, E.Loc.Col);
    putVarint(Payload, E.Reps.size());
    for (const std::string &Rep : E.Reps)
      putString(Payload, Rep);
  }

  putVarint(Payload, Graph.numEdges());
  for (EventId From = 0; From < Graph.numEvents(); ++From)
    for (EventId To : Graph.successors(From)) {
      putVarint(Payload, From);
      putVarint(Payload, To);
    }
  return Payload;
}

/// Reads the payload encodePayload() wrote; failures land in \p Reader.
PropagationGraph readPayload(ByteReader &Reader) {
  // The payload is integrity-checked now; remaining failures are
  // structural (a corrupt encoder or version-1 layout drift) and still
  // reported descriptively rather than trusted.
  PropagationGraph Graph;

  uint64_t NumFiles = Reader.getCount("file count");
  for (uint64_t I = 0; Reader.ok() && I < NumFiles; ++I) {
    std::string_view Path = Reader.getString("file path");
    if (Reader.ok())
      Graph.addFile(std::string(Path));
  }

  uint64_t NumEvents = Reader.getCount("event count");
  std::vector<std::string_view> Reps; // Views into Bytes, reused.
  for (uint64_t I = 0; Reader.ok() && I < NumEvents; ++I) {
    uint8_t Kind = Reader.getByte("event kind");
    uint8_t Candidates = Reader.getByte("candidate mask");
    uint64_t FileIdx = Reader.getVarint("event file index");
    uint64_t Line = Reader.getVarint("event line");
    uint64_t Col = Reader.getVarint("event column");
    uint64_t NumReps = Reader.getCount("representation count");
    if (!Reader.ok())
      break;
    if (Kind > static_cast<uint8_t>(EventKind::CallArgument)) {
      Reader.fail(formatString("invalid event kind %u", Kind));
      break;
    }
    if (Candidates > AllRolesMask) {
      Reader.fail(formatString("invalid candidate mask %u", Candidates));
      break;
    }
    if (FileIdx >= Graph.files().size()) {
      Reader.fail(formatString(
          "event file index %llu out of range (%zu file(s))",
          static_cast<unsigned long long>(FileIdx),
          Graph.files().size()));
      break;
    }
    if (NumReps == 0) {
      Reader.fail("event with no representations");
      break;
    }
    Reps.clear();
    for (uint64_t R = 0; Reader.ok() && R < NumReps; ++R) {
      std::string_view Rep = Reader.getString("representation");
      if (Reader.ok())
        Reps.push_back(Rep);
    }
    if (Reader.ok())
      Graph.addEvent(static_cast<EventKind>(Kind),
                     static_cast<RoleMask>(Candidates),
                     static_cast<uint32_t>(FileIdx),
                     {static_cast<uint32_t>(Line), static_cast<uint32_t>(Col)},
                     Reps);
  }

  uint64_t NumEdges = Reader.getCount("edge count");
  std::vector<Edge> Edges;
  for (uint64_t I = 0; Reader.ok() && I < NumEdges; ++I) {
    uint64_t From = Reader.getVarint("edge source");
    uint64_t To = Reader.getVarint("edge target");
    if (!Reader.ok())
      break;
    if (From >= Graph.numEvents() || To >= Graph.numEvents()) {
      Reader.fail(formatString(
          "edge %llu -> %llu out of range (%zu event(s))",
          static_cast<unsigned long long>(From),
          static_cast<unsigned long long>(To), Graph.numEvents()));
      break;
    }
    if (From == To) {
      Reader.fail(formatString("self-edge on event %llu",
                               static_cast<unsigned long long>(From)));
      break;
    }
    Edges.push_back({static_cast<EventId>(From), static_cast<EventId>(To)});
  }
  if (Reader.ok())
    Graph.addEdges(Edges);
  return Graph;
}

} // namespace

std::string seldon::propgraph::encodeGraph(const PropagationGraph &Graph) {
  return codec::encodeFrame(Format, encodePayload(Graph));
}

io::IOResult<PropagationGraph>
seldon::propgraph::decodeGraph(std::string_view Bytes) {
  return codec::decodeFrame(Bytes, Format, readPayload);
}
