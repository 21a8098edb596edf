#include "common/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/crc32c.h"
#include "common/failpoint.h"

namespace maroon {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::ClearAll();
    dir_ = ::testing::TempDir() + "/maroon_wal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/test.wal";
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::filesystem::remove_all(dir_);
  }

  uint64_t FileSize() const { return std::filesystem::file_size(path_); }

  void AppendRawBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << bytes;
  }

  std::string dir_;
  std::string path_;
};

TEST(Crc32cTest, MatchesKnownVector) {
  // The canonical CRC-32C check value for "123456789".
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, ExtendComposes) {
  EXPECT_EQ(Crc32cExtend(Crc32c("1234"), "56789"), Crc32c("123456789"));
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  const uint32_t crc = Crc32c("payload");
  EXPECT_NE(Crc32cMask(crc), crc);
  EXPECT_EQ(Crc32cUnmask(Crc32cMask(crc)), crc);
}

TEST_F(WalTest, RoundTripsFrames) {
  auto writer = WalWriter::Open(path_);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->Append(1, "alpha").ok());
  ASSERT_TRUE(writer->Append(2, "").ok());  // empty payloads are legal
  ASSERT_TRUE(writer->Append(7, "gamma").ok());  // gaps are legal
  ASSERT_TRUE(writer->Close().ok());

  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->frames.size(), 3u);
  EXPECT_EQ(read->frames[0].seq, 1u);
  EXPECT_EQ(read->frames[0].payload, "alpha");
  EXPECT_EQ(read->frames[1].seq, 2u);
  EXPECT_EQ(read->frames[1].payload, "");
  EXPECT_EQ(read->frames[2].seq, 7u);
  EXPECT_EQ(read->torn_bytes, 0u);
  EXPECT_TRUE(read->truncation_reason.empty());
}

TEST_F(WalTest, BinaryPayloadSurvives) {
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  auto writer = WalWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, payload).ok());
  ASSERT_TRUE(writer->Close().ok());
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->frames.size(), 1u);
  EXPECT_EQ(read->frames[0].payload, payload);
}

TEST_F(WalTest, EmptyLogReadsClean) {
  auto writer = WalWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->frames.empty());
  EXPECT_EQ(read->torn_bytes, 0u);
}

TEST_F(WalTest, SequenceMustAscend) {
  auto writer = WalWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(5, "a").ok());
  EXPECT_FALSE(writer->Append(5, "b").ok());
  EXPECT_FALSE(writer->Append(4, "c").ok());
  EXPECT_TRUE(writer->Append(6, "d").ok());
}

TEST_F(WalTest, TornTailIsDetectedAndNotReplayed) {
  auto writer = WalWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, "first").ok());
  ASSERT_TRUE(writer->Append(2, "second").ok());
  ASSERT_TRUE(writer->Close().ok());
  const uint64_t valid = FileSize();

  // A crash mid-append leaves a partial frame header.
  AppendRawBytes(std::string("\x40\x00\x00", 3));
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->frames.size(), 2u);
  EXPECT_EQ(read->valid_size, valid);
  EXPECT_EQ(read->torn_bytes, 3u);
  EXPECT_EQ(read->truncation_reason, "short frame header");
}

TEST_F(WalTest, CrcMismatchEndsTheValidPrefix) {
  auto writer = WalWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, "first").ok());
  const uint64_t first_end = FileSize();
  ASSERT_TRUE(writer->Append(2, "second").ok());
  ASSERT_TRUE(writer->Close().ok());

  // Flip one payload byte of the second frame.
  std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(static_cast<std::streamoff>(first_end) + 16 + 2);
  file.put('X');
  file.close();

  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->frames.size(), 1u);
  EXPECT_EQ(read->frames[0].payload, "first");
  EXPECT_EQ(read->valid_size, first_end);
  EXPECT_GT(read->torn_bytes, 0u);
  EXPECT_EQ(read->truncation_reason, "payload crc mismatch");
}

TEST_F(WalTest, OpenRepairsTornTailAndResumesSequence) {
  {
    auto writer = WalWriter::Open(path_);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "first").ok());
    ASSERT_TRUE(writer->Append(2, "second").ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  AppendRawBytes("torn-partial-frame");

  auto reopened = WalWriter::Open(path_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->last_seq(), 2u);
  EXPECT_EQ(reopened->repaired_bytes(), 18u);
  ASSERT_TRUE(reopened->Append(3, "third").ok());
  ASSERT_TRUE(reopened->Close().ok());

  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->frames.size(), 3u);
  EXPECT_EQ(read->frames[2].seq, 3u);
  EXPECT_EQ(read->frames[2].payload, "third");
  EXPECT_EQ(read->torn_bytes, 0u);
}

TEST_F(WalTest, WrongMagicIsAnErrorNotATornTail) {
  std::ofstream out(path_, std::ios::binary);
  out << "NOTAWALFILE-----------------";
  out.close();
  auto read = ReadWal(path_);
  EXPECT_FALSE(read.ok());
  auto writer = WalWriter::Open(path_);
  EXPECT_FALSE(writer.ok()) << "foreign files must not be clobbered";
}

TEST_F(WalTest, MissingFileIsIOError) {
  auto read = ReadWal(dir_ + "/absent.wal");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST_F(WalTest, InjectedShortWriteRollsBackToFrameBoundary) {
  auto writer = WalWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, "durable").ok());
  const uint64_t durable = FileSize();

  ASSERT_TRUE(failpoint::Arm("wal.append.write", "short").ok());
  const Status failed = writer->Append(2, "lost-then-retried");
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("short write"), std::string::npos);
  EXPECT_EQ(FileSize(), durable) << "partial frame must be rolled back";

  // The retry (failpoint disarmed after one firing) must succeed and leave a
  // clean two-frame log.
  ASSERT_TRUE(writer->Append(2, "lost-then-retried").ok());
  ASSERT_TRUE(writer->Close().ok());
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->frames.size(), 2u);
  EXPECT_EQ(read->frames[1].payload, "lost-then-retried");
  EXPECT_EQ(read->torn_bytes, 0u);
}

TEST_F(WalTest, InjectedEnospcSurfacesAsIOError) {
  auto writer = WalWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(failpoint::Arm("wal.append.write", "enospc").ok());
  const Status failed = writer->Append(1, "x");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  EXPECT_NE(failed.message().find("no space left"), std::string::npos);
  // Transient: the next attempt goes through.
  EXPECT_TRUE(writer->Append(1, "x").ok());
}

TEST_F(WalTest, InjectedFsyncFailureIsTransient) {
  WalWriterOptions options;
  options.sync_every = 1;
  auto writer = WalWriter::Open(path_, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(failpoint::Arm("wal.append.sync", "fail").ok());
  const Status failed = writer->Append(1, "x");
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("fsync"), std::string::npos);
  // The frame itself landed; a later Sync drains it.
  EXPECT_TRUE(writer->Sync().ok());
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->frames.size(), 1u);
}

TEST_F(WalTest, SyncCadenceIsHonored) {
  WalWriterOptions options;
  options.sync_every = 3;
  auto writer = WalWriter::Open(path_, options);
  ASSERT_TRUE(writer.ok());
  for (uint64_t seq = 1; seq <= 7; ++seq) {
    ASSERT_TRUE(writer->Append(seq, "payload").ok());
  }
  EXPECT_EQ(writer->syncs(), 2u);  // after frames 3 and 6
  EXPECT_EQ(writer->unsynced_frames(), 1u);  // frame 7
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->syncs(), 3u);  // Close always syncs
  EXPECT_EQ(writer->unsynced_frames(), 0u);
}

TEST_F(WalTest, WalFailpointsAreRegisteredForTheHarness) {
  const auto points = failpoint::RegisteredPoints();
  auto has = [&](const std::string& name) {
    for (const auto& [point, what] : points) {
      if (point == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("wal.append.write"));
  EXPECT_TRUE(has("wal.append.sync"));
}

}  // namespace
}  // namespace maroon
