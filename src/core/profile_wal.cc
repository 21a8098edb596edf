#include "core/profile_wal.h"

#include <utility>

#include "common/coding.h"
#include "common/hash.h"
#include "core/entity_profile.h"
#include "core/temporal_sequence.h"
#include "core/value.h"

namespace maroon {

namespace {

/// HashProfileStore's FNV-1a seed. It is one digit short of the standard
/// offset basis; it stays as it is so store hashes remain comparable across
/// versions.
constexpr uint64_t kStoreHashSeed = 1469598103934665603ull;

}  // namespace

std::string EncodeTemporalRecord(const TemporalRecord& record) {
  std::string out;
  PutU32(&out, record.id());
  PutLengthPrefixed(&out, record.name());
  PutU32(&out, static_cast<uint32_t>(record.timestamp()));
  PutU32(&out, record.source());
  PutU32(&out, static_cast<uint32_t>(record.values().size()));
  for (const auto& [attribute, values] : record.values()) {
    PutLengthPrefixed(&out, attribute);
    PutU32(&out, static_cast<uint32_t>(values.size()));
    for (const Value& value : values) {
      PutLengthPrefixed(&out, value);
    }
  }
  return out;
}

Result<TemporalRecord> DecodeTemporalRecord(std::string_view bytes) {
  ByteReader reader(bytes);
  const auto corrupt = [](const char* what) {
    return Status::InvalidArgument(std::string("record payload corrupt: ") +
                                   what);
  };
  uint32_t id = 0;
  std::string name;
  uint32_t timestamp = 0;
  uint32_t source = 0;
  uint32_t attr_count = 0;
  if (!reader.ReadU32(&id)) return corrupt("missing record id");
  if (!reader.ReadLengthPrefixed(&name)) return corrupt("missing name");
  if (!reader.ReadU32(&timestamp)) return corrupt("missing timestamp");
  if (!reader.ReadU32(&source)) return corrupt("missing source");
  if (!reader.ReadU32(&attr_count)) return corrupt("missing attribute count");

  TemporalRecord record(id, std::move(name),
                        static_cast<TimePoint>(timestamp), source);
  for (uint32_t a = 0; a < attr_count; ++a) {
    Attribute attribute;
    uint32_t value_count = 0;
    if (!reader.ReadLengthPrefixed(&attribute)) {
      return corrupt("missing attribute name");
    }
    if (!reader.ReadU32(&value_count)) return corrupt("missing value count");
    std::vector<Value> values;
    values.reserve(value_count);
    for (uint32_t v = 0; v < value_count; ++v) {
      Value value;
      if (!reader.ReadLengthPrefixed(&value)) return corrupt("missing value");
      values.push_back(std::move(value));
    }
    record.SetValue(attribute, MakeValueSet(std::move(values)));
  }
  if (!reader.exhausted()) return corrupt("trailing bytes");
  return record;
}

Result<EntityId> ApplyRecordToStore(const TemporalRecord& record,
                                    ProfileStore* store) {
  const std::vector<EntityId> matches = store->FindByName(record.name());
  EntityProfile profile;
  if (!matches.empty()) {
    // FindByName returns ids sorted ascending — the front is the
    // deterministic tie-break.
    auto existing = store->Get(matches.front());
    if (!existing.ok()) return existing.status();
    profile = **existing;
  } else {
    profile = EntityProfile(
        kStreamEntityPrefix + std::to_string(record.id()), record.name());
  }
  for (const auto& [attribute, values] : record.values()) {
    if (values.empty()) continue;
    MAROON_RETURN_IF_ERROR(profile.sequence(attribute)
                               .Insert(Triple(record.timestamp(),
                                              record.timestamp(), values)));
  }
  profile.Normalize();
  EntityId target = profile.id();
  store->Put(std::move(profile));
  return target;
}

uint64_t HashProfileStore(const ProfileStore& store) {
  Fnv1a fnv(kStoreHashSeed);
  const std::vector<EntityId> ids = store.Ids();
  fnv.U64(ids.size());
  for (const EntityId& id : ids) {
    auto profile = store.Get(id);
    if (!profile.ok()) continue;  // unreachable: id came from Ids()
    const EntityProfile& p = **profile;
    fnv.Str(p.id());
    fnv.Str(p.name());
    fnv.U64(p.sequences().size());
    for (const auto& [attribute, sequence] : p.sequences()) {
      fnv.Str(attribute);
      fnv.U64(sequence.size());
      for (const Triple& triple : sequence.triples()) {
        fnv.U32(static_cast<uint32_t>(triple.interval.begin));
        fnv.U32(static_cast<uint32_t>(triple.interval.end));
        fnv.U64(triple.values.size());
        for (const Value& value : triple.values) fnv.Str(value);
      }
    }
  }
  return fnv.hash();
}

Result<ProfileWalReplay> ReplayProfileWal(const std::string& path,
                                          uint64_t after_seq) {
  MAROON_ASSIGN_OR_RETURN(WalReadResult scan, ReadWal(path));
  ProfileWalReplay replay;
  replay.torn_bytes = scan.torn_bytes;
  replay.truncation_reason = std::move(scan.truncation_reason);
  for (WalFrame& frame : scan.frames) {
    replay.last_seq = frame.seq;
    if (frame.seq <= after_seq) continue;
    auto record = DecodeTemporalRecord(frame.payload);
    if (!record.ok()) {
      return Status::InvalidArgument(
          "WAL frame seq " + std::to_string(frame.seq) +
          " is CRC-valid but undecodable: " + record.status().message());
    }
    replay.records.push_back(ReplayedRecord{frame.seq, std::move(*record)});
  }
  return replay;
}

Result<ProfileWal> ProfileWal::Open(const std::string& path,
                                    const WalWriterOptions& options) {
  MAROON_ASSIGN_OR_RETURN(WalWriter writer, WalWriter::Open(path, options));
  return ProfileWal(std::move(writer));
}

Status ProfileWal::Append(const TemporalRecord& record) {
  return writer_.Append(writer_.last_seq() + 1, EncodeTemporalRecord(record));
}

Status ProfileWal::Sync() { return writer_.Sync(); }

Status ProfileWal::Close() { return writer_.Close(); }

}  // namespace maroon
