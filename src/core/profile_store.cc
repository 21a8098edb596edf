#include "core/profile_store.h"

#include <algorithm>

namespace maroon {

namespace {

bool HoldsAt(const TemporalSequence& seq, const Value& value, TimePoint t) {
  const std::vector<Interval> intervals = seq.IntervalsOf(value);
  return std::any_of(intervals.begin(), intervals.end(),
                     [t](const Interval& iv) { return iv.Contains(t); });
}

}  // namespace

void ProfileStore::Put(EntityProfile profile) {
  auto [it, inserted] = profiles_.try_emplace(profile.id());
  if (!inserted) DropName(it->first, it->second.name());
  std::vector<EntityId>& ids = by_name_[profile.name()];
  ids.insert(std::lower_bound(ids.begin(), ids.end(), it->first), it->first);
  it->second = std::move(profile);
}

Status ProfileStore::Remove(const EntityId& id) {
  auto it = profiles_.find(id);
  if (it == profiles_.end()) {
    return Status::NotFound("no profile with id " + id);
  }
  DropName(id, it->second.name());
  profiles_.erase(it);
  return Status::OK();
}

void ProfileStore::DropName(const EntityId& id, const std::string& name) {
  auto bucket = by_name_.find(name);
  std::vector<EntityId>& ids = bucket->second;
  ids.erase(std::lower_bound(ids.begin(), ids.end(), id));
  if (ids.empty()) by_name_.erase(bucket);
}

Result<const EntityProfile*> ProfileStore::Get(const EntityId& id) const {
  auto it = profiles_.find(id);
  if (it == profiles_.end()) {
    return Status::NotFound("no profile with id " + id);
  }
  return &it->second;
}

std::vector<EntityId> ProfileStore::FindByName(const std::string& name) const {
  auto it = by_name_.find(name);
  return it != by_name_.end() ? it->second : std::vector<EntityId>{};
}

std::vector<EntityId> ProfileStore::FindByValueAt(const Attribute& attribute,
                                                  const Value& value,
                                                  TimePoint t) const {
  std::vector<EntityId> out;
  for (const auto& [id, profile] : profiles_) {
    if (HoldsAt(profile.sequence(attribute), value, t)) out.push_back(id);
  }
  return out;
}

std::vector<EntityId> ProfileStore::FindByValue(const Attribute& attribute,
                                                const Value& value) const {
  std::vector<EntityId> out;
  for (const auto& [id, profile] : profiles_) {
    if (!profile.sequence(attribute).IntervalsOf(value).empty()) {
      out.push_back(id);
    }
  }
  return out;
}

Result<std::map<Attribute, ValueSet>> ProfileStore::SnapshotAt(
    const EntityId& id, TimePoint t) const {
  MAROON_ASSIGN_OR_RETURN(const EntityProfile* profile, Get(id));
  std::map<Attribute, ValueSet> snapshot;
  for (const auto& [attribute, seq] : profile->sequences()) {
    ValueSet values = seq.ValuesAt(t);
    if (!values.empty()) snapshot[attribute] = std::move(values);
  }
  return snapshot;
}

std::vector<EntityId> ProfileStore::CoOccurring(const EntityId& id,
                                                const Attribute& attribute,
                                                TimePoint t) const {
  std::vector<EntityId> out;
  auto profile = Get(id);
  if (!profile.ok()) return out;
  const ValueSet values = (*profile)->sequence(attribute).ValuesAt(t);
  for (const auto& [other_id, other] : profiles_) {
    if (other_id == id) continue;
    const TemporalSequence& seq = other.sequence(attribute);
    if (std::any_of(values.begin(), values.end(), [&](const Value& v) {
          return HoldsAt(seq, v, t);
        })) {
      out.push_back(other_id);
    }
  }
  return out;
}

std::vector<EntityId> ProfileStore::Ids() const {
  std::vector<EntityId> out;
  out.reserve(profiles_.size());
  for (const auto& [id, profile] : profiles_) out.push_back(id);
  return out;
}

}  // namespace maroon
