#ifndef MAROON_CORE_TEMPORAL_RECORD_H_
#define MAROON_CORE_TEMPORAL_RECORD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/time_types.h"
#include "core/value.h"

namespace maroon {

/// Identifies a temporal record within a dataset.
using RecordId = uint32_t;

/// Identifies a data source (index into Dataset::sources()).
using SourceId = uint32_t;

/// An independent data source that publishes observations of entities
/// (paper §3). Quality metadata (freshness) is *learnt*, not stored here.
struct DataSource {
  SourceId id = 0;
  std::string name;
};

/// One observation published by a source: attribute values claimed for an
/// entity, the publication timestamp, and the publishing source (paper §3).
/// A missing attribute simply has no entry in `values`.
class TemporalRecord {
 public:
  TemporalRecord() = default;
  TemporalRecord(RecordId id, std::string name, TimePoint timestamp,
                 SourceId source)
      : id_(id),
        name_(std::move(name)),
        timestamp_(timestamp),
        source_(source) {}

  RecordId id() const { return id_; }
  /// The entity name mentioned by the record (used for candidate blocking).
  const std::string& name() const { return name_; }
  TimePoint timestamp() const { return timestamp_; }
  SourceId source() const { return source_; }

  /// Sets attribute `A` to the canonical form of `values`; an empty set
  /// erases the attribute (missing value).
  void SetValue(const Attribute& attribute, ValueSet values);

  /// r.A — the value set for `attribute`, empty if missing.
  const ValueSet& GetValue(const Attribute& attribute) const;

  bool HasAttribute(const Attribute& attribute) const {
    return values_.count(attribute) > 0;
  }

  /// Attributes present in this record, sorted.
  std::vector<Attribute> Attributes() const;

  const std::map<Attribute, ValueSet>& values() const { return values_; }

  std::string ToString() const;

 private:
  /// Stamps the id of a record it stores or renumbers.
  friend class Dataset;

  RecordId id_ = 0;
  std::string name_;
  std::map<Attribute, ValueSet> values_;
  TimePoint timestamp_ = 0;
  SourceId source_ = 0;
};

}  // namespace maroon

#endif  // MAROON_CORE_TEMPORAL_RECORD_H_
