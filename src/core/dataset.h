#ifndef MAROON_CORE_DATASET_H_
#define MAROON_CORE_DATASET_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/entity_profile.h"
#include "core/temporal_record.h"
#include "core/value.h"

namespace maroon {

/// A target entity in an experiment: the clean (incomplete) profile given as
/// input, and the full ground-truth profile used only for evaluation.
struct TargetEntity {
  EntityProfile clean_profile;
  EntityProfile ground_truth;
};

/// An experiment corpus: the attribute schema, the data sources, the pool of
/// temporal records, per-record ground-truth entity labels, and the target
/// entities whose profiles are to be augmented.
///
/// Records are identified by their index; `AddRecord` assigns ids densely.
/// Two indexes are kept current on every write: raw record name -> ascending
/// ids (the blocking step behind `CandidatesFor`) and label -> ascending ids
/// (`TrueMatchesOf`). A stored record's name never changes: the only
/// mutation of a stored record is `SetRecordValue`.
class Dataset {
 public:
  Dataset() = default;

  void SetAttributes(std::vector<Attribute> attributes) {
    attributes_ = std::move(attributes);
  }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Registers a source and returns its id.
  SourceId AddSource(std::string name);
  const std::vector<DataSource>& sources() const { return sources_; }
  const DataSource& source(SourceId id) const { return sources_.at(id); }

  /// Adds `record` to the pool, overwriting its id with the next dense id.
  RecordId AddRecord(TemporalRecord record);
  const std::vector<TemporalRecord>& records() const { return records_; }
  const TemporalRecord& record(RecordId id) const { return records_.at(id); }
  /// Sets attribute `attribute` of stored record `id` as
  /// TemporalRecord::SetValue does (in-place repair, core/validation.h).
  /// Values are all that may change in a stored record.
  void SetRecordValue(RecordId id, const Attribute& attribute,
                      ValueSet values) {
    records_.at(id).SetValue(attribute, std::move(values));
  }
  size_t NumRecords() const { return records_.size(); }

  /// Erases the given records (e.g. quarantined by validation) and
  /// re-densifies ids; labels follow their records. Out-of-range ids are
  /// ignored. Returns the number of records erased. All previously held
  /// RecordIds and returned id buckets are invalidated.
  size_t EraseRecords(const std::vector<RecordId>& ids);

  /// Records the ground truth "record `id` refers to entity `entity`"; an
  /// overwrite moves the record to its new label's Match set.
  Status SetLabel(RecordId id, EntityId entity);

  /// The labelled entity for a record, or empty string if unlabelled.
  const EntityId& LabelOf(RecordId id) const;

  /// Registers a target entity.
  Status AddTarget(EntityId id, TargetEntity target);
  const std::map<EntityId, TargetEntity>& targets() const { return targets_; }
  Result<const TargetEntity*> target(const EntityId& id) const;
  /// Mutable access for in-place repair; nullptr if `id` is unregistered.
  TargetEntity* mutable_target(const EntityId& id);

  /// Ascending ids of every record whose mentioned name equals `name`
  /// exactly (raw, not normalized). O(1); the reference stays valid until the
  /// next AddRecord or EraseRecords.
  const std::vector<RecordId>& RecordsNamed(const std::string& name) const;

  /// Candidate records for a target: every record whose mentioned name equals
  /// the target profile's name (the blocking step used by the paper — records
  /// "that have the same name with the entity"); empty for an unknown target.
  /// Valid as long as RecordsNamed's answer is.
  const std::vector<RecordId>& CandidatesFor(const EntityId& id) const;

  /// Ascending record ids whose ground-truth label is `id` (the paper's Match
  /// set). O(matches), except for the empty id, whose answer (the unlabelled
  /// records) is found by a scan.
  std::vector<RecordId> TrueMatchesOf(const EntityId& id) const;

  /// Human-readable corpus statistics (records per source, match counts,
  /// time span) — the shape of the paper's Table 6.
  std::string StatisticsString() const;

 private:
  /// Rebuilds both indexes from records_ and labels_.
  void Reindex();

  std::vector<Attribute> attributes_;
  std::vector<DataSource> sources_;
  std::vector<TemporalRecord> records_;
  std::vector<EntityId> labels_;  // parallel to records_; "" = unlabelled
  std::map<EntityId, TargetEntity> targets_;
  // Raw record name -> ascending ids of the records mentioning it.
  std::unordered_map<std::string, std::vector<RecordId>> by_name_;
  // Non-empty label -> ascending ids of the records carrying it.
  std::unordered_map<EntityId, std::vector<RecordId>> by_label_;
};

}  // namespace maroon

#endif  // MAROON_CORE_DATASET_H_
