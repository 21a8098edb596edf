#include "common/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/failpoint.h"

namespace maroon {

namespace {

constexpr char kWalMagic[4] = {'M', 'R', 'W', 'L'};
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderSize = 12;      // magic + version + flags
constexpr size_t kFrameHeaderSize = 16; // payload_len + seq + masked crc
/// A frame longer than this is treated as a corrupt length field, not an
/// allocation request. Streaming records are a few hundred bytes.
constexpr uint32_t kMaxPayload = 64u << 20;

const failpoint::Registrar kFpWalWrite{
    "wal.append.write", "frame write into the live WAL segment"};
const failpoint::Registrar kFpWalSync{
    "wal.append.sync", "fsync after a WAL frame write"};
const failpoint::Registrar kFpWalHeader{
    "wal.open.header", "header write when creating a WAL file"};

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// The injected-fault arm of a mutating file operation. Returns OK when the
/// site is unarmed; a non-OK status is the injected failure to surface.
/// Short/torn writes cut `data` and perform the partial write themselves.
Status ApplyWriteFailpoint(const char* point, int fd, std::string_view data,
                           uint64_t* size) {
  const failpoint::Action action = failpoint::Hit(point);
  switch (action) {
    case failpoint::Action::kNone:
      return Status::OK();
    case failpoint::Action::kKill:
      failpoint::Die(point);
    case failpoint::Action::kFail:
      return Status::IOError(std::string("injected write failure at ") +
                             point);
    case failpoint::Action::kEnospc:
      return Status::IOError(
          std::string("injected: no space left on device at ") + point);
    case failpoint::Action::kShortWrite:
    case failpoint::Action::kTornWrite: {
      // Land half the bytes so the tail is torn mid-frame.
      const size_t cut = data.size() / 2;
      if (cut > 0) {
        const ssize_t written = ::write(fd, data.data(), cut);
        if (written > 0) *size += static_cast<uint64_t>(written);
      }
      if (action == failpoint::Action::kTornWrite) failpoint::Die(point);
      return Status::IOError(std::string("injected short write at ") + point);
    }
  }
  return Status::OK();
}

}  // namespace

DurableFile::DurableFile(DurableFile&& other) noexcept
    : fd_(other.fd_), size_(other.size_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.size_ = 0;
}

DurableFile& DurableFile::operator=(DurableFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    size_ = other.size_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.size_ = 0;
  }
  return *this;
}

DurableFile::~DurableFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<DurableFile> DurableFile::OpenForAppend(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("cannot open", path));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IOError(ErrnoMessage("cannot stat", path));
    ::close(fd);
    return status;
  }
  DurableFile file;
  file.fd_ = fd;
  file.size_ = static_cast<uint64_t>(st.st_size);
  file.path_ = path;
  return file;
}

Result<DurableFile> DurableFile::Create(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("cannot create", path));
  DurableFile file;
  file.fd_ = fd;
  file.size_ = 0;
  file.path_ = path;
  return file;
}

Status DurableFile::Append(std::string_view data, const char* point) {
  if (fd_ < 0) return Status::FailedPrecondition("file is not open");
  MAROON_RETURN_IF_ERROR(ApplyWriteFailpoint(point, fd_, data, &size_));
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write failed on", path_));
    }
    done += static_cast<size_t>(n);
    size_ += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Status DurableFile::Sync(const char* point) {
  if (fd_ < 0) return Status::FailedPrecondition("file is not open");
  switch (failpoint::Hit(point)) {
    case failpoint::Action::kKill:
    case failpoint::Action::kTornWrite:
      failpoint::Die(point);
    case failpoint::Action::kFail:
    case failpoint::Action::kEnospc:
    case failpoint::Action::kShortWrite:
      return Status::IOError(std::string("injected fsync failure at ") +
                             point);
    case failpoint::Action::kNone:
      break;
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fsync failed on", path_));
  }
  return Status::OK();
}

Status DurableFile::TruncateTo(uint64_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("file is not open");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError(ErrnoMessage("ftruncate failed on", path_));
  }
  // ftruncate leaves the fd offset where it was; without the seek the next
  // write would land past a zero-filled hole at the old offset.
  if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    return Status::IOError(ErrnoMessage("lseek failed on", path_));
  }
  size_ = size;
  return Status::OK();
}

Status DurableFile::Close() {
  if (fd_ < 0) return Status::OK();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    return Status::IOError(ErrnoMessage("close failed on", path_));
  }
  return Status::OK();
}

Status AtomicRename(const std::string& from, const std::string& to,
                    const char* point) {
  const std::string before = std::string(point) + ".before";
  const std::string after = std::string(point) + ".after";
  MAROON_CRASH_POINT(before.c_str());
  switch (failpoint::Hit(point)) {
    case failpoint::Action::kKill:
    case failpoint::Action::kTornWrite:
      failpoint::Die(point);
    case failpoint::Action::kFail:
    case failpoint::Action::kEnospc:
    case failpoint::Action::kShortWrite:
      return Status::IOError(std::string("injected rename failure at ") +
                             point);
    case failpoint::Action::kNone:
      break;
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError(ErrnoMessage("rename failed for", from));
  }
  MAROON_CRASH_POINT(after.c_str());
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError(ErrnoMessage("cannot open", path));
  std::string out;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::IOError(ErrnoMessage("read failed on", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Result<WalReadResult> ReadWal(const std::string& path) {
  MAROON_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  if (data.size() < kHeaderSize) {
    return Status::InvalidArgument("WAL " + path + " is shorter than its header (" +
                                   std::to_string(data.size()) + " bytes)");
  }
  if (std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::InvalidArgument("WAL " + path + " has wrong magic");
  }
  const uint32_t version = GetU32(data.data() + 4);
  if (version != kWalVersion) {
    return Status::InvalidArgument("WAL " + path + " has unsupported version " +
                                   std::to_string(version));
  }

  WalReadResult result;
  size_t offset = kHeaderSize;
  uint64_t prev_seq = 0;
  auto stop = [&](const char* reason) {
    result.valid_size = offset;
    result.torn_bytes = data.size() - offset;
    result.truncation_reason = reason;
  };
  while (offset < data.size()) {
    if (data.size() - offset < kFrameHeaderSize) {
      stop("short frame header");
      return result;
    }
    const char* header = data.data() + offset;
    const uint32_t payload_len = GetU32(header);
    const uint64_t seq = GetU64(header + 4);
    const uint32_t stored_crc = Crc32cUnmask(GetU32(header + 12));
    if (payload_len > kMaxPayload) {
      stop("implausible payload length");
      return result;
    }
    if (data.size() - offset - kFrameHeaderSize < payload_len) {
      stop("short payload");
      return result;
    }
    const std::string_view payload(data.data() + offset + kFrameHeaderSize,
                                   payload_len);
    uint32_t crc = Crc32c({header + 4, 8});  // seq bytes
    crc = Crc32cExtend(crc, payload);
    if (crc != stored_crc) {
      stop("payload crc mismatch");
      return result;
    }
    if (seq <= prev_seq) {
      stop("sequence regression");
      return result;
    }
    prev_seq = seq;
    result.frames.push_back(WalFrame{seq, std::string(payload)});
    offset += kFrameHeaderSize + payload_len;
  }
  result.valid_size = data.size();
  result.torn_bytes = 0;
  return result;
}

Result<WalWriter> WalWriter::Open(const std::string& path,
                                  const WalWriterOptions& options) {
  std::string header;
  header.append(kWalMagic, sizeof(kWalMagic));
  PutU32(&header, kWalVersion);
  PutU32(&header, 0);  // flags

  struct stat st{};
  bool exists = ::stat(path.c_str(), &st) == 0;
  if (exists && static_cast<uint64_t>(st.st_size) < kHeaderSize) {
    // A file shorter than the header is only legitimate as the artifact of
    // a crash mid-header-write, which leaves a strict prefix of the fresh
    // header on disk. Anything else is operator data — refuse to clobber.
    MAROON_ASSIGN_OR_RETURN(const std::string partial, ReadFileToString(path));
    if (header.compare(0, partial.size(), partial) != 0) {
      return Status::InvalidArgument("WAL " + path +
                                     " is shorter than its header and does "
                                     "not look like a torn header write");
    }
    exists = false;  // recreate from scratch below
  }
  if (!exists) {
    MAROON_ASSIGN_OR_RETURN(DurableFile file, DurableFile::Create(path));
    MAROON_RETURN_IF_ERROR(file.Append(header, "wal.open.header"));
    MAROON_RETURN_IF_ERROR(file.Sync("wal.append.sync"));
    return WalWriter(std::move(file), options, /*last_seq=*/0,
                     /*repaired_bytes=*/0);
  }

  // Existing log: scan, repair the torn tail, and resume after the last
  // valid frame. A file that fails *header* validation is not silently
  // clobbered — that is operator data, not a crash artifact.
  MAROON_ASSIGN_OR_RETURN(WalReadResult scan, ReadWal(path));
  MAROON_ASSIGN_OR_RETURN(DurableFile file, DurableFile::OpenForAppend(path));
  uint64_t repaired = 0;
  if (scan.torn_bytes > 0) {
    MAROON_RETURN_IF_ERROR(file.TruncateTo(scan.valid_size));
    MAROON_RETURN_IF_ERROR(file.Sync("wal.append.sync"));
    repaired = scan.torn_bytes;
  }
  const uint64_t last_seq =
      scan.frames.empty() ? 0 : scan.frames.back().seq;
  return WalWriter(std::move(file), options, last_seq, repaired);
}

Status WalWriter::Append(uint64_t seq, std::string_view payload) {
  thread_checker_.Check();
  if (seq <= last_seq_) {
    return Status::InvalidArgument(
        "WAL sequence must ascend: got " + std::to_string(seq) +
        " after " + std::to_string(last_seq_));
  }
  if (payload.size() > kMaxPayload) {
    return Status::InvalidArgument("WAL payload too large: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, seq);
  uint32_t crc = Crc32c({frame.data() + 4, 8});
  crc = Crc32cExtend(crc, payload);
  PutU32(&frame, Crc32cMask(crc));
  frame.append(payload);

  const uint64_t frame_start = file_.size();
  const Status append = file_.Append(frame, "wal.append.write");
  if (!append.ok()) {
    // Roll back to the frame boundary so a retry never leaves a partial
    // frame *followed by* a valid one (which replay would misread as a torn
    // tail in the middle of the log).
    const Status rollback = file_.TruncateTo(frame_start);
    if (!rollback.ok()) {
      return Status::IOError(append.message() +
                             "; rollback also failed: " + rollback.message());
    }
    return append;
  }
  last_seq_ = seq;
  ++frames_appended_;
  ++frames_since_sync_;
  if (options_.sync_every > 0 &&
      frames_since_sync_ >= static_cast<uint64_t>(options_.sync_every)) {
    MAROON_RETURN_IF_ERROR(Sync());
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  thread_checker_.Check();
  MAROON_RETURN_IF_ERROR(file_.Sync("wal.append.sync"));
  frames_since_sync_ = 0;
  ++syncs_;
  return Status::OK();
}

Status WalWriter::Close() {
  thread_checker_.Check();
  if (!file_.is_open()) return Status::OK();
  MAROON_RETURN_IF_ERROR(Sync());
  return file_.Close();
}

}  // namespace maroon
