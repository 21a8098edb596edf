#include "core/dataset.h"

#include <algorithm>
#include <sstream>

namespace maroon {

namespace {

const std::vector<RecordId>& NoRecords() {
  static const std::vector<RecordId>* kNone = new std::vector<RecordId>();
  return *kNone;
}

}  // namespace

SourceId Dataset::AddSource(std::string name) {
  SourceId id = static_cast<SourceId>(sources_.size());
  sources_.push_back(DataSource{id, std::move(name)});
  return id;
}

RecordId Dataset::AddRecord(TemporalRecord record) {
  const RecordId id = static_cast<RecordId>(records_.size());
  record.id_ = id;
  by_name_[record.name()].push_back(id);
  records_.push_back(std::move(record));
  labels_.emplace_back();
  return id;
}

void Dataset::Reindex() {
  by_name_.clear();
  by_label_.clear();
  for (RecordId id = 0; id < records_.size(); ++id) {
    by_name_[records_[id].name()].push_back(id);
    if (!labels_[id].empty()) by_label_[labels_[id]].push_back(id);
  }
}

size_t Dataset::EraseRecords(const std::vector<RecordId>& ids) {
  std::vector<bool> drop(records_.size(), false);
  size_t erased = 0;
  for (RecordId id : ids) {
    if (id < records_.size() && !drop[id]) {
      drop[id] = true;
      ++erased;
    }
  }
  if (erased == 0) return 0;
  std::vector<TemporalRecord> kept_records;
  std::vector<EntityId> kept_labels;
  kept_records.reserve(records_.size() - erased);
  kept_labels.reserve(records_.size() - erased);
  for (size_t i = 0; i < records_.size(); ++i) {
    if (drop[i]) continue;
    records_[i].id_ = static_cast<RecordId>(kept_records.size());
    kept_records.push_back(std::move(records_[i]));
    kept_labels.push_back(std::move(labels_[i]));
  }
  records_ = std::move(kept_records);
  labels_ = std::move(kept_labels);
  Reindex();
  return erased;
}

Status Dataset::SetLabel(RecordId id, EntityId entity) {
  if (id >= records_.size()) {
    return Status::OutOfRange("record id " + std::to_string(id) +
                              " out of range");
  }
  EntityId& label = labels_[id];
  if (label == entity) return Status::OK();
  if (!label.empty()) {
    auto bucket = by_label_.find(label);
    std::vector<RecordId>& ids = bucket->second;
    ids.erase(std::lower_bound(ids.begin(), ids.end(), id));
    if (ids.empty()) by_label_.erase(bucket);
  }
  if (!entity.empty()) {
    std::vector<RecordId>& ids = by_label_[entity];
    ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
  }
  label = std::move(entity);
  return Status::OK();
}

const EntityId& Dataset::LabelOf(RecordId id) const {
  static const EntityId* kEmpty = new EntityId();
  return id < labels_.size() ? labels_[id] : *kEmpty;
}

Status Dataset::AddTarget(EntityId id, TargetEntity target) {
  auto [it, inserted] = targets_.emplace(std::move(id), std::move(target));
  if (!inserted) {
    return Status::AlreadyExists("target entity " + it->first +
                                 " already registered");
  }
  return Status::OK();
}

TargetEntity* Dataset::mutable_target(const EntityId& id) {
  auto it = targets_.find(id);
  return it != targets_.end() ? &it->second : nullptr;
}

Result<const TargetEntity*> Dataset::target(const EntityId& id) const {
  auto it = targets_.find(id);
  if (it == targets_.end()) {
    return Status::NotFound("no target entity " + id);
  }
  return &it->second;
}

const std::vector<RecordId>& Dataset::RecordsNamed(
    const std::string& name) const {
  auto it = by_name_.find(name);
  return it != by_name_.end() ? it->second : NoRecords();
}

const std::vector<RecordId>& Dataset::CandidatesFor(const EntityId& id) const {
  auto it = targets_.find(id);
  if (it == targets_.end()) return NoRecords();
  return RecordsNamed(it->second.clean_profile.name());
}

std::vector<RecordId> Dataset::TrueMatchesOf(const EntityId& id) const {
  if (!id.empty()) {
    auto it = by_label_.find(id);
    return it != by_label_.end() ? it->second : std::vector<RecordId>();
  }
  std::vector<RecordId> out;
  for (RecordId r = 0; r < labels_.size(); ++r) {
    if (labels_[r].empty()) out.push_back(r);
  }
  return out;
}

std::string Dataset::StatisticsString() const {
  std::ostringstream os;
  os << "Dataset: " << targets_.size() << " target entities, "
     << records_.size() << " records, " << sources_.size() << " sources\n";
  for (const DataSource& s : sources_) {
    size_t count = 0;
    size_t matched = 0;
    TimePoint lo = 0, hi = 0;
    bool seen = false;
    for (const TemporalRecord& r : records_) {
      if (r.source() != s.id) continue;
      ++count;
      const EntityId& label = LabelOf(r.id());
      if (!label.empty() && targets_.count(label) > 0) ++matched;
      if (!seen) {
        lo = hi = r.timestamp();
        seen = true;
      } else {
        lo = std::min(lo, r.timestamp());
        hi = std::max(hi, r.timestamp());
      }
    }
    os << "  " << s.name << ": " << count << " records, " << matched
       << " matched";
    if (seen) os << ", period " << lo << "-" << hi;
    os << "\n";
  }
  return os.str();
}

}  // namespace maroon
