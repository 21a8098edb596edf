#ifndef MAROON_CORE_PROFILE_STORE_H_
#define MAROON_CORE_PROFILE_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/entity_profile.h"
#include "core/time_types.h"
#include "core/value.h"

namespace maroon {

/// An in-memory, queryable store of entity profiles — the integrated
/// "knowledge repository" the paper's introduction motivates (YAGO-style
/// aggregation): once temporal linkage has built per-entity histories, the
/// store answers point-in-time questions about them.
///
/// Put and Remove keep a name -> ids index current, so FindByName costs
/// O(log store) plus output size and no write ever touches the whole store.
/// FindByValue, FindByValueAt and CoOccurring scan every profile's sequence
/// for the attribute: O(store x triples), for occasional queries only.
class ProfileStore {
 public:
  ProfileStore() = default;

  /// Inserts or replaces the profile with the same id. The profile should
  /// be normalized; the store does not modify it.
  void Put(EntityProfile profile);

  /// Removes an entity; missing ids are a no-op returning NotFound.
  Status Remove(const EntityId& id);

  Result<const EntityProfile*> Get(const EntityId& id) const;
  bool Contains(const EntityId& id) const { return profiles_.count(id) > 0; }
  size_t size() const { return profiles_.size(); }
  bool empty() const { return profiles_.empty(); }

  /// Entities whose display name equals `name`, sorted by id.
  std::vector<EntityId> FindByName(const std::string& name) const;

  /// Entities that hold `value` on `attribute` at instant `t`, sorted.
  std::vector<EntityId> FindByValueAt(const Attribute& attribute,
                                      const Value& value, TimePoint t) const;

  /// Entities that ever held `value` on `attribute`, sorted.
  std::vector<EntityId> FindByValue(const Attribute& attribute,
                                    const Value& value) const;

  /// The entity's state at instant `t`: attribute -> values (attributes
  /// with no value at `t` are omitted). NotFound for unknown ids.
  Result<std::map<Attribute, ValueSet>> SnapshotAt(const EntityId& id,
                                                   TimePoint t) const;

  /// Entities (other than `id`) sharing a value with `id` on `attribute` at
  /// instant `t` — e.g. colleagues at the same organization. Sorted.
  std::vector<EntityId> CoOccurring(const EntityId& id,
                                    const Attribute& attribute,
                                    TimePoint t) const;

  /// All entity ids, sorted.
  std::vector<EntityId> Ids() const;

 private:
  /// Removes `id` from the bucket of `name`, dropping the bucket if empty.
  void DropName(const EntityId& id, const std::string& name);

  std::map<EntityId, EntityProfile> profiles_;
  /// Display name -> ids holding it, ascending; no bucket is ever empty.
  std::map<std::string, std::vector<EntityId>> by_name_;
};

}  // namespace maroon

#endif  // MAROON_CORE_PROFILE_STORE_H_
