//===- support/BinaryCodec.h - Shared binary codec primitives ----*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The primitives shared by every checksummed binary format in the tree
/// (propgraph/GraphCodec.h, constraints/ShardCodec.h and
/// service/StateCodec.h's journal and snapshot): LEB128 varints,
/// length-prefixed strings, little-endian fixed64 words, the FNV-1a-64
/// checksum, the strict forward-only ByteReader, and the one frame every
/// format shares:
///
///   magic      4 bytes  the format's identity
///   version    varint   the format's version
///   checksum   8 bytes  FNV-1a-64 of the payload, little-endian
///   length     varint   payload size in bytes
///   payload
///
/// The last three fields form a *record* (putRecord/getRecord); a journal
/// is one header followed by many records. Every read either succeeds or
/// records a descriptive error with the byte offset, and all subsequent
/// reads fail.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_BINARYCODEC_H
#define SELDON_SUPPORT_BINARYCODEC_H

#include "support/IOResult.h"
#include "support/StrUtil.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace seldon {
namespace codec {

/// FNV-1a 64-bit over \p Bytes, continuing from \p Seed. Each step is
/// injective in the accumulator, so two equal-length inputs differing in
/// one byte always hash differently — a single bit flip in a stored
/// payload is guaranteed to be detected.
inline uint64_t fnv1a64(std::string_view Bytes,
                        uint64_t Seed = 0xcbf29ce484222325ull) {
  uint64_t Hash = Seed;
  for (unsigned char C : Bytes) {
    Hash ^= C;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

/// Appends \p Value as an LEB128 varint.
inline void putVarint(std::string &Out, uint64_t Value) {
  while (Value >= 0x80) {
    Out.push_back(static_cast<char>(Value | 0x80));
    Value >>= 7;
  }
  Out.push_back(static_cast<char>(Value));
}

/// Appends \p Text length-prefixed (varint length, then the bytes).
inline void putString(std::string &Out, std::string_view Text) {
  putVarint(Out, Text.size());
  Out.append(Text);
}

/// Appends \p Value as 8 little-endian bytes.
inline void putFixed64(std::string &Out, uint64_t Value) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    Out.push_back(static_cast<char>((Value >> Shift) & 0xff));
}

/// Folds a length-prefixed chunk into a running FNV-1a hash, so the chunk
/// sequences ("ab","c") and ("a","bc") hash differently. The building
/// block of every content-hash cache key.
inline void hashChunk(uint64_t &Hash, std::string_view Bytes) {
  uint64_t Len = Bytes.size();
  Hash = fnv1a64(
      std::string_view(reinterpret_cast<const char *>(&Len), sizeof(Len)),
      Hash);
  Hash = fnv1a64(Bytes, Hash);
}

/// Folds one 64-bit word into a running FNV-1a hash.
inline void hashValue(uint64_t &Hash, uint64_t Value) {
  Hash = fnv1a64(
      std::string_view(reinterpret_cast<const char *>(&Value),
                       sizeof(Value)),
      Hash);
}

/// Strict forward-only reader over encoded bytes. Every getter either
/// succeeds or records a descriptive error (with the current offset) and
/// makes all further reads fail: once an error is recorded, every getter
/// returns 0 (or an empty string) without reading, so decode logic can
/// chain reads and check once per section, and a count read after a
/// failure never sizes an allocation.
class ByteReader {
public:
  explicit ByteReader(std::string_view Bytes, size_t Pos = 0)
      : Bytes(Bytes), Pos(Pos) {}

  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }
  size_t offset() const { return Pos; }
  size_t remaining() const { return Bytes.size() - Pos; }

  void fail(const std::string &What) {
    if (Error.empty())
      Error = formatString("%s at byte %zu", What.c_str(), Pos);
  }

  uint64_t getVarint(const char *What) {
    if (!ok())
      return 0;
    uint64_t Value = 0;
    for (int Shift = 0; Shift < 64; Shift += 7) {
      if (Pos >= Bytes.size()) {
        fail(formatString("truncated input reading %s", What));
        return 0;
      }
      unsigned char Byte = static_cast<unsigned char>(Bytes[Pos++]);
      Value |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
      if ((Byte & 0x80) == 0)
        return Value;
    }
    fail(formatString("varint overflow reading %s", What));
    return 0;
  }

  /// Reads an element count and fails unless the rest of the input could
  /// hold that many elements of at least \p MinBytes bytes each, so a
  /// corrupt count never sizes an allocation.
  uint64_t getCount(const char *What, size_t MinBytes = 1) {
    uint64_t Count = getVarint(What);
    if (!ok())
      return 0;
    if (Count > remaining() / MinBytes) {
      fail(formatString("%s %llu exceeds the %zu byte(s) left", What,
                        static_cast<unsigned long long>(Count),
                        remaining()));
      return 0;
    }
    return Count;
  }

  uint8_t getByte(const char *What) {
    if (!ok())
      return 0;
    if (Pos >= Bytes.size()) {
      fail(formatString("truncated input reading %s", What));
      return 0;
    }
    return static_cast<uint8_t>(Bytes[Pos++]);
  }

  uint64_t getFixed64(const char *What) {
    if (!ok())
      return 0;
    if (remaining() < 8) {
      fail(formatString("truncated input reading %s", What));
      return 0;
    }
    uint64_t Value = 0;
    for (int Shift = 0; Shift < 64; Shift += 8)
      Value |= static_cast<uint64_t>(
                   static_cast<unsigned char>(Bytes[Pos++]))
               << Shift;
    return Value;
  }

  std::string_view getString(const char *What) {
    uint64_t Len = getVarint(What);
    if (!ok())
      return {};
    if (Len > remaining()) {
      fail(formatString("truncated input reading %s (need %llu bytes, "
                        "have %zu)",
                        What, static_cast<unsigned long long>(Len),
                        remaining()));
      return {};
    }
    std::string_view Out = Bytes.substr(Pos, Len);
    Pos += Len;
    return Out;
  }

private:
  std::string_view Bytes;
  size_t Pos = 0;
  std::string Error;
};

/// The identity of one framed format.
struct FrameFormat {
  std::string_view Magic; ///< 4 bytes.
  uint32_t Version;       ///< The one version this build writes and reads.
  const char *Name;       ///< Names the format in errors.
};

/// Appends the frame header: magic, then varint version.
inline void putHeader(std::string &Out, const FrameFormat &Format) {
  Out.append(Format.Magic);
  putVarint(Out, Format.Version);
}

/// Appends \p Payload as a record: checksum, length, payload.
inline void putRecord(std::string &Out, std::string_view Payload) {
  putFixed64(Out, fnv1a64(Payload));
  putVarint(Out, Payload.size());
  Out.append(Payload);
}

/// Encodes one whole frame: header, then \p Payload as its record.
inline std::string encodeFrame(const FrameFormat &Format,
                               std::string_view Payload) {
  std::string Out;
  Out.reserve(Payload.size() + 24);
  putHeader(Out, Format);
  putRecord(Out, Payload);
  return Out;
}

/// Checks the frame header at the front of \p Bytes; the value is the
/// header's length.
inline io::IOResult<size_t> checkHeader(std::string_view Bytes,
                                        const FrameFormat &Format) {
  using Result = io::IOResult<size_t>;
  if (Bytes.substr(0, Format.Magic.size()) != Format.Magic)
    return Result::failure(
        formatString("bad magic: not a %s", Format.Name));
  ByteReader Reader(Bytes, Format.Magic.size());
  uint64_t Version = Reader.getVarint("format version");
  if (!Reader.ok())
    return Result::failure(Reader.error());
  if (Version != Format.Version)
    return Result::failure(formatString(
        "unsupported %s format version %llu (this build reads version %u)",
        Format.Name, static_cast<unsigned long long>(Version),
        Format.Version));
  return Result::success(Reader.offset());
}

/// Reads the record starting at byte \p Pos of \p Bytes and returns its
/// payload. \p Size receives the record's length, or 0 when the record
/// runs past the end of \p Bytes (a torn append, or a truncated frame);
/// a complete record whose payload fails its checksum is an error with
/// \p Size set.
inline io::IOResult<std::string_view>
getRecord(std::string_view Bytes, size_t Pos, size_t &Size) {
  using Result = io::IOResult<std::string_view>;
  Size = 0;
  ByteReader Reader(Bytes, Pos);
  uint64_t Stored = Reader.getFixed64("payload checksum");
  uint64_t Length = Reader.getVarint("payload length");
  if (!Reader.ok())
    return Result::failure(Reader.error());
  if (Length > Reader.remaining())
    return Result::failure(formatString(
        "payload size mismatch: header declares %llu byte(s), %zu follow",
        static_cast<unsigned long long>(Length), Reader.remaining()));
  std::string_view Payload = Bytes.substr(Reader.offset(), Length);
  Size = Reader.offset() + Length - Pos;
  uint64_t Actual = fnv1a64(Payload);
  if (Actual != Stored)
    return Result::failure(formatString(
        "payload checksum mismatch: stored %016llx, computed %016llx",
        static_cast<unsigned long long>(Stored),
        static_cast<unsigned long long>(Actual)));
  return Result::success(Payload);
}

/// Checks a whole frame — header, then one record ending exactly at the
/// end of \p Bytes — and returns its payload.
inline io::IOResult<std::string_view> decodeFrame(std::string_view Bytes,
                                                  const FrameFormat &Format) {
  using Result = io::IOResult<std::string_view>;
  io::IOResult<size_t> Header = checkHeader(Bytes, Format);
  if (!Header)
    return Result::failure(std::move(Header.Error));
  size_t Size = 0;
  Result Payload = getRecord(Bytes, Header.Value, Size);
  if (!Payload)
    return Result::failure(
        formatString("corrupt %s: %s", Format.Name, Payload.Error.c_str()));
  if (Header.Value + Size != Bytes.size())
    return Result::failure(formatString(
        "corrupt %s: payload size mismatch: %zu trailing byte(s)",
        Format.Name, Bytes.size() - Header.Value - Size));
  return Payload;
}

/// Reads all of \p Payload with \p Read. The value is kept only when the
/// reader ends ok with every byte consumed, so a decoder never returns a
/// partially-populated value.
template <class T>
io::IOResult<T> readWhole(std::string_view Payload, T (*Read)(ByteReader &)) {
  ByteReader Reader(Payload);
  T Value = Read(Reader);
  if (Reader.ok() && Reader.remaining() != 0)
    Reader.fail(formatString("%zu unconsumed payload byte(s)",
                             Reader.remaining()));
  if (!Reader.ok())
    return io::IOResult<T>::failure(Reader.error());
  return io::IOResult<T>::success(std::move(Value));
}

/// Checks a whole frame (see above) and reads its payload with \p Read.
template <class T>
io::IOResult<T> decodeFrame(std::string_view Bytes, const FrameFormat &Format,
                            T (*Read)(ByteReader &)) {
  io::IOResult<std::string_view> Payload = decodeFrame(Bytes, Format);
  if (!Payload)
    return io::IOResult<T>::failure(std::move(Payload.Error));
  return readWhole(Payload.Value, Read);
}

} // namespace codec
} // namespace seldon

#endif // SELDON_SUPPORT_BINARYCODEC_H
