#ifndef MAROON_COMMON_WAL_H_
#define MAROON_COMMON_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"

namespace maroon {

/// A checksummed, versioned write-ahead log and the failpoint-aware file
/// primitives it is built on (the snapshot writer shares them).
///
/// File layout (all integers little-endian):
///
///   header   "MRWL" u32 version=1 u32 flags=0                (12 bytes)
///   frame*   u32 payload_len  u64 seq  u32 masked_crc32c     (16 bytes)
///            payload bytes
///
/// The CRC covers seq and payload, and is stored masked (see crc32c.h), so
/// a frame of zeros or a frame copied from another offset never validates.
/// Sequence numbers are assigned by the caller and must be strictly
/// ascending; replay rejects regressions as corruption.
///
/// Torn-tail contract: ReadWal replays frames up to the first invalid byte
/// (short header, impossible length, CRC mismatch, seq regression) and
/// reports the valid prefix length. A trailing partial frame is expected
/// after a crash and is *truncated, never replayed*; WalWriter::Open repairs
/// the file to the valid prefix before appending.

/// A failpoint-instrumented POSIX file for durable writes. Every mutating
/// call names a failpoint so faults (short write, fsync failure, ENOSPC,
/// process kill) can be injected at exact byte positions.
class DurableFile {
 public:
  DurableFile() = default;
  DurableFile(DurableFile&& other) noexcept;
  DurableFile& operator=(DurableFile&& other) noexcept;
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;
  /// Closing in the destructor is best-effort; call Close() on paths that
  /// must observe the error.
  ~DurableFile();

  /// Opens for appending; creates the file when absent. `size()` reflects
  /// the existing length.
  static Result<DurableFile> OpenForAppend(const std::string& path);
  /// Opens fresh for writing, truncating any existing file.
  static Result<DurableFile> Create(const std::string& path);

  /// Appends all of `data` (loops over partial writes). On failure the file
  /// offset and reported size are *not* rolled back — callers that need
  /// atomic frames truncate back to the last durable size (see TruncateTo).
  Status Append(std::string_view data, const char* point);
  /// fsync(2). `point` names the failpoint consulted first.
  Status Sync(const char* point);
  /// ftruncate(2) + seek to `size` — the torn-write repair primitive.
  Status TruncateTo(uint64_t size);
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;
};

/// rename(2) with a crash point before and after — the atomic-publish step
/// of snapshot writes. `point` is the base name; "<point>.before" fires
/// ahead of the rename, "<point>.after" once the new name is durable.
Status AtomicRename(const std::string& from, const std::string& to,
                    const char* point);

/// Reads a whole file into a string (IOError when unreadable).
Result<std::string> ReadFileToString(const std::string& path);

/// One replayed WAL frame.
struct WalFrame {
  uint64_t seq = 0;
  std::string payload;
};

/// The outcome of scanning a WAL file.
struct WalReadResult {
  std::vector<WalFrame> frames;
  /// Offset of the first byte that failed validation (== file size when the
  /// log is clean). Everything past it is a torn tail.
  uint64_t valid_size = 0;
  /// Bytes past valid_size that a repair would drop.
  uint64_t torn_bytes = 0;
  /// Why the scan stopped early (empty when the log is clean) — e.g.
  /// "short frame header", "payload crc mismatch".
  std::string truncation_reason;
};

/// Scans `path`, validating every frame. Fails with IOError when the file
/// cannot be read and InvalidArgument when the *header* is wrong (a missing
/// or foreign file is not a torn log); frame-level damage is not an error —
/// it ends the valid prefix and is reported in the result.
Result<WalReadResult> ReadWal(const std::string& path);

/// Options for WalWriter.
struct WalWriterOptions {
  /// fsync cadence: 0 never (OS decides), 1 after every frame (the durable
  /// default), N after every Nth frame. Close() always syncs.
  int sync_every = 1;
};

/// Appends checksummed frames to a WAL file. Opening an existing file scans
/// it first and truncates any torn tail, so appends always start at a valid
/// frame boundary; `last_seq()` resumes from the highest replayed sequence.
///
/// Single-owner contract: a WalWriter is confined to one thread after Open
/// (sequence numbers and the sync cadence are stateful and unsynchronized).
/// The mutating calls check this with a ThreadChecker, so a second thread
/// sneaking in trips a DCHECK in debug builds instead of corrupting the log.
class WalWriter {
 public:
  static Result<WalWriter> Open(const std::string& path,
                                const WalWriterOptions& options = {});

  /// Appends one frame. `seq` must exceed last_seq(). A failed write rolls
  /// the file back to the previous frame boundary before returning, so a
  /// retry of the same Append never duplicates bytes.
  Status Append(uint64_t seq, std::string_view payload);

  /// Forces an fsync now (regardless of cadence).
  Status Sync();
  Status Close();

  uint64_t last_seq() const { return last_seq_; }
  uint64_t frames_appended() const { return frames_appended_; }
  uint64_t syncs() const { return syncs_; }
  /// Frames appended since the last fsync, counted at every cadence.
  uint64_t unsynced_frames() const { return frames_since_sync_; }
  /// Bytes dropped by the torn-tail repair in Open (0 for a clean log).
  uint64_t repaired_bytes() const { return repaired_bytes_; }

 private:
  WalWriter(DurableFile file, WalWriterOptions options, uint64_t last_seq,
            uint64_t repaired_bytes)
      : file_(std::move(file)),
        options_(options),
        last_seq_(last_seq),
        repaired_bytes_(repaired_bytes) {}

  DurableFile file_;
  WalWriterOptions options_;
  uint64_t last_seq_ = 0;
  uint64_t frames_appended_ = 0;
  uint64_t syncs_ = 0;
  uint64_t repaired_bytes_ = 0;
  uint64_t frames_since_sync_ = 0;
  /// Enforces the single-owner contract on Append/Sync/Close.
  ThreadChecker thread_checker_;
};

}  // namespace maroon

#endif  // MAROON_COMMON_WAL_H_
