//===- tests/fileio_test.cpp - The shared frame codec and file layer ------===//
//
// The two support modules every on-disk format goes through:
// support/BinaryCodec.h's frame writer and reader (each rejection keeps
// its error class; a torn record is told apart from a corrupt one; a
// count larger than the bytes left is an error, never an allocation) and
// support/FileIO (whole-file reads, writes that fail loudly, atomic
// publishes whose temps carry the pid and are swept after a crash).
//
//===----------------------------------------------------------------------===//

#include "support/BinaryCodec.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

using namespace seldon;

namespace fs = std::filesystem;

namespace {

constexpr codec::FrameFormat Format{"TEST", 3, "test frame"};

std::string scratchDir(const std::string &Prefix) {
  static std::atomic<uint64_t> Seq{0};
  fs::path Dir = fs::temp_directory_path() /
                 (Prefix + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(Seq.fetch_add(1)));
  fs::create_directories(Dir);
  return Dir.string();
}

void expectError(const io::IOResult<std::string_view> &R,
                 const std::string &Class, const std::string &Case) {
  EXPECT_FALSE(R.ok()) << Case;
  EXPECT_NE(R.Error.find(Class), std::string::npos)
      << Case << ": " << R.Error;
}

//===----------------------------------------------------------------------===//
// The frame
//===----------------------------------------------------------------------===//

TEST(FrameCodecTest, RoundTripsThePayload) {
  std::string Frame = codec::encodeFrame(Format, "payload bytes");
  // magic (4) + version (1) + checksum (8) + length (1) + payload.
  EXPECT_EQ(Frame.size(), 4u + 1 + 8 + 1 + 13);
  EXPECT_EQ(Frame.substr(0, 4), "TEST");
  io::IOResult<std::string_view> R = codec::decodeFrame(Frame, Format);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Value, "payload bytes");
}

TEST(FrameCodecTest, EachRejectionKeepsItsErrorClass) {
  std::string Frame = codec::encodeFrame(Format, "payload bytes");

  std::string Magic = Frame;
  Magic[0] = 'X';
  expectError(codec::decodeFrame(Magic, Format), "bad magic", "magic");

  std::string Version = Frame;
  Version[4] = 4;
  expectError(codec::decodeFrame(Version, Format),
              "unsupported test frame format version 4", "version");

  expectError(codec::decodeFrame(Frame.substr(0, Frame.size() - 1), Format),
              "size mismatch", "truncated payload");
  expectError(codec::decodeFrame(Frame + "x", Format), "size mismatch",
              "trailing garbage");

  std::string Flipped = Frame;
  Flipped.back() ^= 0x01;
  expectError(codec::decodeFrame(Flipped, Format), "checksum mismatch",
              "flipped payload");

  expectError(codec::decodeFrame("TE", Format), "bad magic", "short header");
}

TEST(FrameCodecTest, ATornRecordIsToldApartFromACorruptOne) {
  std::string Journal;
  codec::putHeader(Journal, Format);
  size_t First = Journal.size();
  codec::putRecord(Journal, "first");
  size_t Second = Journal.size();
  codec::putRecord(Journal, "second");

  size_t Size = 0;
  io::IOResult<std::string_view> R = codec::getRecord(Journal, First, Size);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Value, "first");
  EXPECT_EQ(Size, Second - First);

  // Every strict prefix of the last record is torn: Size 0.
  for (size_t Len = Second; Len < Journal.size(); ++Len) {
    codec::getRecord(std::string_view(Journal).substr(0, Len), Second, Size);
    EXPECT_EQ(Size, 0u) << "prefix of " << Len << " byte(s)";
  }

  // A complete record that fails its checksum is corrupt: Size is set.
  std::string Flipped = Journal;
  Flipped.back() ^= 0x01;
  R = codec::getRecord(Flipped, Second, Size);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(Size, Journal.size() - Second);
  EXPECT_NE(R.Error.find("checksum mismatch"), std::string::npos) << R.Error;
}

TEST(FrameCodecTest, CountsAreBoundedByTheBytesLeft) {
  std::string Bytes;
  codec::putVarint(Bytes, uint64_t(1) << 61);
  Bytes.append(16, 'x');
  codec::ByteReader Reader(Bytes);
  EXPECT_EQ(Reader.getCount("element count"), 0u);
  EXPECT_FALSE(Reader.ok());
  EXPECT_NE(Reader.error().find("exceeds"), std::string::npos)
      << Reader.error();

  // Sixteen bytes hold two 8-byte elements, not three.
  std::string Small;
  codec::putVarint(Small, 3);
  Small.append(16, 'x');
  codec::ByteReader Eights(Small);
  Eights.getCount("score count", 8);
  EXPECT_FALSE(Eights.ok());
  codec::ByteReader Ones(Small);
  EXPECT_EQ(Ones.getCount("byte count"), 3u);
  EXPECT_TRUE(Ones.ok());
}

TEST(FrameCodecTest, ReadsAfterAFailureReturnZeroWithoutReading) {
  // A count that follows a failed read must never come back unbounded:
  // once the reader has failed, no getter reads another byte.
  std::string Bytes;
  Bytes.push_back(2);
  codec::putVarint(Bytes, uint64_t(1) << 61);
  Bytes.append(16, 'x');
  codec::ByteReader Reader(Bytes);
  Reader.getByte("flag");
  Reader.fail("flag byte 2 is not a boolean");
  size_t Offset = Reader.offset();
  EXPECT_EQ(Reader.getCount("element count"), 0u);
  EXPECT_EQ(Reader.getVarint("element count"), 0u);
  EXPECT_EQ(Reader.getFixed64("word"), 0u);
  EXPECT_EQ(Reader.getByte("byte"), 0u);
  EXPECT_TRUE(Reader.getString("text").empty());
  EXPECT_EQ(Reader.offset(), Offset);
  EXPECT_NE(Reader.error().find("not a boolean"), std::string::npos)
      << Reader.error();
}

//===----------------------------------------------------------------------===//
// Whole-file reads and writes
//===----------------------------------------------------------------------===//

TEST(FileIOTest, WriteThenReadRoundTrips) {
  std::string Dir = scratchDir("fileio-rw");
  std::string Path = Dir + "/data.bin";
  std::string Bytes("a\0b\nc", 5);
  Bytes.append(100000, 'z'); // Larger than any single read buffer guess.
  io::IOResult<size_t> Written = io::writeFile(Path, Bytes);
  ASSERT_TRUE(Written.ok()) << Written.Error;
  EXPECT_EQ(Written.Value, Bytes.size());
  io::IOResult<std::string> Read = io::readFile(Path);
  ASSERT_TRUE(Read.ok()) << Read.Error;
  EXPECT_EQ(Read.Value, Bytes);

  // writeFile truncates: a shorter rewrite leaves no stale tail.
  ASSERT_TRUE(io::writeFile(Path, "short").ok());
  EXPECT_EQ(io::readFile(Path).Value, "short");

  io::IOResult<std::string> Missing = io::readFile(Dir + "/missing");
  EXPECT_FALSE(Missing.ok());
  EXPECT_NE(Missing.Error.find("cannot read"), std::string::npos)
      << Missing.Error;
  fs::remove_all(Dir);
}

TEST(FileIOTest, AWriteThatDoesNotLandFails) {
  io::IOResult<size_t> NoDir =
      io::writeFile("/definitely/not/a/dir/out.txt", "x");
  EXPECT_FALSE(NoDir.ok());
  EXPECT_NE(NoDir.Error.find("cannot write"), std::string::npos)
      << NoDir.Error;

  if (!fs::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this host";
  // /dev/full accepts the open and fails every write with ENOSPC.
  io::IOResult<size_t> Full = io::writeFile("/dev/full", "bytes");
  EXPECT_FALSE(Full.ok());
  EXPECT_NE(Full.Error.find("cannot write /dev/full"), std::string::npos)
      << Full.Error;
}

//===----------------------------------------------------------------------===//
// Atomic publish and the crash-leftover sweep
//===----------------------------------------------------------------------===//

std::vector<std::string> listDir(const std::string &Dir) {
  std::vector<std::string> Names;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Names.push_back(E.path().filename().string());
  return Names;
}

TEST(FileIOTest, PublishRenamesAPidNamedTempOverTheTarget) {
  std::string Dir = scratchDir("fileio-publish");
  std::string Path = Dir + "/state-1.ssn";
  ASSERT_TRUE(io::writeFile(Path, "old").ok());

  char Pid[16];
  std::snprintf(Pid, sizeof(Pid), "%010ld", static_cast<long>(::getpid()));
  const std::string Prefix = std::string("state-1.ssn.tmp") + Pid;
  std::string TempName;
  for (bool Fsync : {false, true}) {
    io::IOResult<size_t> R = io::publishFile(Path, "new", Fsync, [&] {
      // Between write and rename: the target is untouched and the one
      // temp beside it is "<name>.tmp<10-digit pid><digits>".
      EXPECT_EQ(io::readFile(Path).Value, Fsync ? "new" : "old");
      std::vector<std::string> Names = listDir(Dir);
      ASSERT_EQ(Names.size(), 2u);
      TempName = Names[0] == "state-1.ssn" ? Names[1] : Names[0];
      EXPECT_EQ(TempName.rfind(Prefix, 0), 0u) << TempName;
      EXPECT_EQ(TempName.find_first_not_of("0123456789", Prefix.size()),
                std::string::npos)
          << TempName;
    });
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(R.Value, 3u);
    EXPECT_EQ(io::readFile(Path).Value, "new");
    EXPECT_EQ(listDir(Dir).size(), 1u) << "the temp outlived its rename";
  }

  // A crash between write and rename leaves exactly such a temp; the
  // sweep recognizes it once it is old enough.
  std::string Leftover = Dir + "/" + TempName;
  ASSERT_TRUE(io::writeFile(Leftover, "half").ok());
  EXPECT_EQ(io::sweepStaleTemps(Dir, ".ssn"), 0u) << "fresh: maybe live";
  fs::last_write_time(Leftover, fs::file_time_type::clock::now() -
                                    std::chrono::hours(1));
  EXPECT_EQ(io::sweepStaleTemps(Dir, ".ssn"), 1u);
  EXPECT_FALSE(fs::exists(Leftover));
  EXPECT_TRUE(fs::exists(Path));
  fs::remove_all(Dir);
}

TEST(FileIOTest, AFailedPublishLeavesTheTargetAndNoTemp) {
  std::string Dir = scratchDir("fileio-publish-fail");
  // A non-empty directory in the target's place makes the rename fail.
  std::string Path = Dir + "/entry.spg";
  fs::create_directories(Path + "/occupied");
  bool Ran = false;
  io::IOResult<size_t> R =
      io::publishFile(Path, "bytes", /*Fsync=*/false, [&] { Ran = true; });
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(Ran);
  EXPECT_NE(R.Error.find("cannot rename"), std::string::npos) << R.Error;
  EXPECT_EQ(listDir(Dir), std::vector<std::string>{"entry.spg"});

  // A temp that cannot be created never reaches the crash point.
  Ran = false;
  R = io::publishFile(Dir + "/missing/entry.spg", "bytes", /*Fsync=*/true,
                      [&] { Ran = true; });
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(Ran);
  fs::remove_all(Dir);
}

} // namespace
