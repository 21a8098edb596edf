#ifndef MAROON_CORE_PROFILE_WAL_H_
#define MAROON_CORE_PROFILE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/wal.h"
#include "core/profile_store.h"
#include "core/temporal_record.h"

namespace maroon {

/// The durable streaming contract: a TemporalRecord is appended to the
/// profile WAL *before* it mutates the ProfileStore, and the apply step is a
/// pure function of (record, store). Recovery therefore reduces to replaying
/// the WAL tail over the newest snapshot — the recovered store is
/// bit-for-bit the store an uninterrupted run would have built, which
/// HashProfileStore verifies.

/// Binary payload codec (all integers little-endian; `lp` is a u32 length
/// prefix followed by raw bytes). Versioning lives in the WAL file header,
/// not the payload:
///
///   u32 record_id  lp name  u32 timestamp (two's complement)  u32 source
///   u32 attr_count  (lp attribute  u32 value_count  lp value*)*
std::string EncodeTemporalRecord(const TemporalRecord& record);

/// Decodes a payload produced by EncodeTemporalRecord. InvalidArgument on
/// truncation or trailing garbage — a CRC-valid frame that fails here is
/// an encoder/decoder version skew, not a torn write.
Result<TemporalRecord> DecodeTemporalRecord(std::string_view bytes);

/// Entity ids minted for stream-spawned profiles: kStreamEntityPrefix +
/// decimal record id of the first record that mentioned the name.
inline constexpr char kStreamEntityPrefix[] = "w";

/// Applies one admitted record to the store, deterministically:
///   - exact-name routing: the record joins the profile whose display name
///     equals record.name(); ties break to the smallest entity id;
///   - no match spawns a new profile with id kStreamEntityPrefix +
///     record.id() (record ids are unique per stream, so replaying the same
///     records always mints the same ids);
///   - every attribute value set lands as a [t, t] triple and the profile is
///     re-normalized.
/// Returns the id of the profile the record landed in.
Result<EntityId> ApplyRecordToStore(const TemporalRecord& record,
                                    ProfileStore* store);

/// FNV-1a over a canonical traversal of the store (ids sorted, attributes
/// sorted, triples in sequence order, every string length-prefixed).
/// Deliberately independent of the snapshot byte format so the hash stays
/// comparable across snapshot format versions.
uint64_t HashProfileStore(const ProfileStore& store);

/// One decoded WAL frame.
struct ReplayedRecord {
  uint64_t seq = 0;
  TemporalRecord record;
};

struct ProfileWalReplay {
  /// Records with seq > the requested floor, in log order.
  std::vector<ReplayedRecord> records;
  /// Highest valid sequence in the log (including skipped frames).
  uint64_t last_seq = 0;
  /// Torn-tail accounting, forwarded from ReadWal.
  uint64_t torn_bytes = 0;
  std::string truncation_reason;
};

/// Replays the profile WAL at `path`, decoding every frame with
/// seq > `after_seq` (pass a snapshot's last_seq to replay only the tail).
/// A torn tail is reported, not an error; an undecodable CRC-valid payload
/// is an error.
Result<ProfileWalReplay> ReplayProfileWal(const std::string& path,
                                          uint64_t after_seq = 0);

/// Append-side binding of the record codec onto WalWriter. Sequence numbers
/// are the apply index: 1 for the first record ever logged, resuming past
/// the highest replayed frame when the file already exists.
class ProfileWal {
 public:
  static Result<ProfileWal> Open(const std::string& path,
                                 const WalWriterOptions& options = {});

  /// Encodes and appends `record` under seq last_seq()+1. The record is
  /// durable (per the sync cadence) once this returns OK; IO failures are
  /// transient — the writer rolled back to a frame boundary and the same
  /// record may be retried.
  Status Append(const TemporalRecord& record);

  Status Sync();
  Status Close();

  uint64_t last_seq() const { return writer_.last_seq(); }
  uint64_t frames_appended() const { return writer_.frames_appended(); }
  uint64_t syncs() const { return writer_.syncs(); }
  uint64_t unsynced_frames() const { return writer_.unsynced_frames(); }
  uint64_t repaired_bytes() const { return writer_.repaired_bytes(); }

 private:
  explicit ProfileWal(WalWriter writer) : writer_(std::move(writer)) {}

  WalWriter writer_;
};

}  // namespace maroon

#endif  // MAROON_CORE_PROFILE_WAL_H_
