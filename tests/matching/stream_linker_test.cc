#include "matching/stream_linker.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/failpoint.h"
#include "core/profile_snapshot.h"
#include "core/profile_wal.h"
#include "core/temporal_record.h"

namespace maroon {
namespace {

class StreamLinkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::ClearAll();
    dir_ = ::testing::TempDir() + "/maroon_stream_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    options_.wal_path = dir_ + "/stream.wal";
    options_.snapshot_dir = dir_ + "/snapshots";
    options_.retry_initial_backoff_us = 0;  // keep tests fast
    std::filesystem::create_directories(options_.snapshot_dir);
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::filesystem::remove_all(dir_);
  }

  static TemporalRecord MakeRecord(RecordId id, const std::string& name,
                                   TimePoint t) {
    TemporalRecord record(id, name, t, 0);
    record.SetValue("Org", MakeValueSet({"org-" + std::to_string(id)}));
    return record;
  }

  std::string dir_;
  StreamLinkerOptions options_;
};

TEST_F(StreamLinkerTest, StreamsRecordsIntoTheStore) {
  auto linker = StreamLinker::Open(options_);
  ASSERT_TRUE(linker.ok()) << linker.status();
  for (RecordId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(linker->Submit(MakeRecord(id, "p" + std::to_string(id % 3),
                                          1990 + static_cast<TimePoint>(id)))
                    .ok());
  }
  ASSERT_TRUE(linker->Drain().ok());
  EXPECT_EQ(linker->stats().applied, 10u);
  EXPECT_EQ(linker->store().size(), 3u);  // three distinct names
  EXPECT_EQ(linker->last_seq(), 10u);
  ASSERT_TRUE(linker->Close().ok());
}

TEST_F(StreamLinkerTest, DegenerateRecordsAreRejectedNotQueued) {
  auto linker = StreamLinker::Open(options_);
  ASSERT_TRUE(linker.ok());
  const Status rejected = linker->Submit(TemporalRecord(1, "ann", 1990, 0));
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(linker->stats().rejected, 1u);
  EXPECT_EQ(linker->queue_depth(), 0u);
}

TEST_F(StreamLinkerTest, FullQueuePushesBackAndDrainClears) {
  options_.max_queue = 4;
  auto linker = StreamLinker::Open(options_);
  ASSERT_TRUE(linker.ok());
  for (RecordId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(linker->Submit(MakeRecord(id, "ann", 1990)).ok());
  }
  const Status full = linker->Submit(MakeRecord(5, "ann", 1991));
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(linker->Drain().ok());
  EXPECT_TRUE(linker->Submit(MakeRecord(5, "ann", 1991)).ok());
  ASSERT_TRUE(linker->Close().ok());
  EXPECT_EQ(linker->stats().applied, 5u);
}

TEST_F(StreamLinkerTest, MemoryBoundShedsNewEntitiesButMergesExisting) {
  options_.max_store_entities = 2;
  auto linker = StreamLinker::Open(options_);
  ASSERT_TRUE(linker.ok());
  ASSERT_TRUE(linker->Submit(MakeRecord(1, "ann", 1990)).ok());
  ASSERT_TRUE(linker->Submit(MakeRecord(2, "bob", 1990)).ok());
  ASSERT_TRUE(linker->Submit(MakeRecord(3, "carol", 1990)).ok());  // shed
  ASSERT_TRUE(linker->Submit(MakeRecord(4, "ann", 1995)).ok());    // merges
  ASSERT_TRUE(linker->Drain().ok());
  EXPECT_EQ(linker->store().size(), 2u);
  EXPECT_EQ(linker->stats().shed, 1u);
  EXPECT_EQ(linker->stats().applied, 3u);
  ASSERT_EQ(linker->quarantine().size(), 1u);
  EXPECT_EQ(linker->quarantine()[0].id(), 3u);
  // Shed records are not WAL-durable: the log holds 3 frames.
  ASSERT_TRUE(linker->Close().ok());
  auto replay = ReplayProfileWal(options_.wal_path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records.size(), 3u);
}

TEST_F(StreamLinkerTest, TransientWalFailuresAreRetried) {
  auto linker = StreamLinker::Open(options_);
  ASSERT_TRUE(linker.ok());
  ASSERT_TRUE(linker->Submit(MakeRecord(1, "ann", 1990)).ok());
  // Two consecutive injected failures, then the third attempt succeeds.
  ASSERT_TRUE(failpoint::Arm("wal.append.write", "enospc@0:2").ok());
  ASSERT_TRUE(linker->Drain().ok());
  EXPECT_EQ(linker->stats().retries, 2u);
  EXPECT_EQ(linker->stats().applied, 1u);
  ASSERT_TRUE(linker->Close().ok());
}

TEST_F(StreamLinkerTest, ExhaustedRetriesSurfaceAndKeepTheRecordQueued) {
  options_.max_retries = 2;
  auto linker = StreamLinker::Open(options_);
  ASSERT_TRUE(linker.ok());
  ASSERT_TRUE(linker->Submit(MakeRecord(1, "ann", 1990)).ok());
  ASSERT_TRUE(failpoint::Arm("wal.append.write", "enospc@0:0").ok());
  const Status failed = linker->Drain();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIOError);
  EXPECT_EQ(linker->queue_depth(), 1u) << "record must stay queued";
  // The disk recovers; a later Drain applies the record.
  failpoint::ClearAll();
  ASSERT_TRUE(linker->Drain().ok());
  EXPECT_EQ(linker->stats().applied, 1u);
  ASSERT_TRUE(linker->Close().ok());
}

TEST_F(StreamLinkerTest, SnapshotCadenceAndFinalSnapshot) {
  options_.snapshot_every = 4;
  auto linker = StreamLinker::Open(options_);
  ASSERT_TRUE(linker.ok());
  for (RecordId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(linker->Submit(MakeRecord(id, "ann", 1990)).ok());
  }
  ASSERT_TRUE(linker->Drain().ok());
  EXPECT_EQ(linker->stats().snapshots_written, 2u);  // after 4 and 8
  ASSERT_TRUE(linker->Close().ok());
  EXPECT_EQ(linker->stats().snapshots_written, 3u);  // final at 10
  auto snapshot = LoadNewestValidSnapshot(options_.snapshot_dir);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->last_seq, 10u);
}

TEST_F(StreamLinkerTest, SnapshotFailureIsGraceful) {
  options_.snapshot_every = 2;
  auto linker = StreamLinker::Open(options_);
  ASSERT_TRUE(linker.ok());
  ASSERT_TRUE(failpoint::Arm("snapshot.write", "enospc").ok());
  for (RecordId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(linker->Submit(MakeRecord(id, "ann", 1990)).ok());
  }
  ASSERT_TRUE(linker->Drain().ok()) << "snapshot loss must not stop the "
                                       "stream";
  EXPECT_EQ(linker->stats().snapshot_failures, 1u);
  EXPECT_GE(linker->stats().snapshots_written, 1u);  // boundary at 4 worked
  ASSERT_TRUE(linker->Close().ok());
}

TEST_F(StreamLinkerTest, SnapshotNeverCoversUnsyncedWalFrames) {
  // With a lazy fsync cadence the WAL holds frames only in the page cache;
  // a snapshot published over them could outlive them after a power loss.
  options_.wal.sync_every = 0;
  options_.snapshot_every = 2;
  auto linker = StreamLinker::Open(options_);
  ASSERT_TRUE(linker.ok());
  ASSERT_TRUE(failpoint::Arm("wal.append.sync", "fail").ok());
  ASSERT_TRUE(linker->Submit(MakeRecord(1, "ann", 1990)).ok());
  ASSERT_TRUE(linker->Submit(MakeRecord(2, "bob", 1991)).ok());
  ASSERT_TRUE(linker->Drain().ok());
  auto snapshots = ListSnapshots(options_.snapshot_dir);
  ASSERT_TRUE(snapshots.ok());
  EXPECT_TRUE(snapshots->empty()) << "snapshot covers seq "
                                  << snapshots->back().last_seq
                                  << " while the WAL was never fsynced";
  EXPECT_GE(linker->stats().snapshot_failures, 1u);
  failpoint::ClearAll();
  ASSERT_TRUE(linker->Close().ok());
}

TEST_F(StreamLinkerTest, RecoveryRebuildsTheStoreFromSnapshotPlusTail) {
  uint64_t live_hash = 0;
  {
    options_.snapshot_every = 3;
    auto linker = StreamLinker::Open(options_);
    ASSERT_TRUE(linker.ok());
    for (RecordId id = 1; id <= 8; ++id) {
      ASSERT_TRUE(
          linker->Submit(MakeRecord(id, "p" + std::to_string(id % 2),
                                    1990 + static_cast<TimePoint>(id)))
              .ok());
    }
    ASSERT_TRUE(linker->Drain().ok());
    // Sync the WAL but skip Close: the final snapshot is *not* written, so
    // recovery must replay the tail past the snapshot at seq 6.
    ASSERT_TRUE(linker->Flush().ok());
    live_hash = HashProfileStore(linker->store());
  }
  auto recovered = StreamLinker::Open(options_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->stats().recovered, 2u);  // seqs 7, 8
  EXPECT_EQ(recovered->last_seq(), 8u);
  EXPECT_EQ(HashProfileStore(recovered->store()), live_hash);
}

TEST_F(StreamLinkerTest, ResumeSkipsRecordsAlreadyDurable) {
  uint64_t full_hash = 0;
  {
    // The uninterrupted run over all 6 records.
    StreamLinkerOptions reference = options_;
    reference.wal_path = dir_ + "/reference.wal";
    reference.snapshot_dir.clear();
    auto linker = StreamLinker::Open(reference);
    ASSERT_TRUE(linker.ok());
    for (RecordId id = 1; id <= 6; ++id) {
      ASSERT_TRUE(linker->Submit(MakeRecord(id, "ann", 1990)).ok());
    }
    ASSERT_TRUE(linker->Close().ok());
    full_hash = HashProfileStore(linker->store());
  }
  {
    // A run that persists only the first 4 records.
    auto linker = StreamLinker::Open(options_);
    ASSERT_TRUE(linker.ok());
    for (RecordId id = 1; id <= 4; ++id) {
      ASSERT_TRUE(linker->Submit(MakeRecord(id, "ann", 1990)).ok());
    }
    ASSERT_TRUE(linker->Close().ok());
  }
  // The driver resends the *whole* stream; the first 4 are skipped.
  auto resumed = StreamLinker::Open(options_);
  ASSERT_TRUE(resumed.ok());
  for (RecordId id = 1; id <= 6; ++id) {
    ASSERT_TRUE(resumed->Submit(MakeRecord(id, "ann", 1990)).ok());
  }
  ASSERT_TRUE(resumed->Close().ok());
  EXPECT_EQ(resumed->stats().resumed_skips, 4u);
  EXPECT_EQ(resumed->stats().applied, 2u);
  EXPECT_EQ(HashProfileStore(resumed->store()), full_hash);
}

TEST_F(StreamLinkerTest, MissingWalPathIsInvalid) {
  StreamLinkerOptions options;
  auto linker = StreamLinker::Open(options);
  ASSERT_FALSE(linker.ok());
  EXPECT_EQ(linker.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StreamLinkerTest, StreamCrashPointIsRegistered) {
  const auto points = failpoint::RegisteredPoints();
  bool found = false;
  for (const auto& [point, what] : points) {
    if (point == "stream.apply.before") found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace maroon
