#ifndef MAROON_DATAGEN_SOURCE_SIMULATOR_H_
#define MAROON_DATAGEN_SOURCE_SIMULATOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/dataset.h"
#include "core/entity_profile.h"
#include "core/temporal_record.h"
#include "core/time_types.h"
#include "core/value.h"

namespace maroon {

/// The observation behaviour of one simulated data source.
///
/// A source publishes snapshot records about an entity at random instants;
/// for each attribute it covers, the published value is the entity's *true*
/// value at (publication time - sampled delay) — i.e. the source may lag
/// reality, exactly the staleness Eq. 9 measures and the freshness model
/// learns.
struct SourceConfig {
  std::string name;
  /// Probability the source publishes a record about a given entity in a
  /// given year of the entity's lifespan.
  double publication_rate = 0.35;
  /// Per attribute: probability the attribute appears in a record.
  std::map<Attribute, double> coverage;
  /// Per attribute: probability the published value is current (delay 0).
  std::map<Attribute, double> fresh_probability;
  /// Per attribute: given a stale publication, delay = 1 + Geometric(decay).
  std::map<Attribute, double> stale_decay;
  /// Per attribute: probability a published value is replaced by a random
  /// wrong value from `error_pool` (publication noise; exercises the
  /// reliability-model extension). Default: no errors.
  std::map<Attribute, double> error_rate;
  /// Candidate wrong values per attribute for error injection.
  std::map<Attribute, std::vector<Value>> error_pool;
  /// Probability a record's entity-name mention carries a typo (a dropped or
  /// transposed character). Exact name blocking misses such records; the
  /// fuzzy NameBlocker recovers them.
  double name_typo_rate = 0.0;
  /// The source only publishes records timestamped at or after this.
  TimePoint active_from = 0;
};

/// Emits temporal records for ground-truth profiles through a SourceConfig.
class SourceSimulator {
 public:
  SourceSimulator(SourceConfig config, SourceId source_id)
      : config_(std::move(config)), source_id_(source_id) {}

  /// Generates this source's records for one entity and appends them to
  /// `dataset` with ground-truth labels. Records mention the profile's name.
  /// Returns the number of records emitted.
  size_t EmitRecords(const EntityProfile& ground_truth, Dataset& dataset,
                     Random& rng) const;

  const SourceConfig& config() const { return config_; }
  SourceId source_id() const { return source_id_; }

 private:
  const SourceConfig config_;
  const SourceId source_id_;
};

/// The paper's Table 6 source mix, adapted to the synthetic world:
/// "CareerHub" (LinkedIn-like; fully fresh, highest volume), "OrbitPlus"
/// (Google+-like; mostly fresh, titles lag), and "Chirper" (Twitter-like;
/// active only from 2006, locations fresh, work attributes lag).
std::vector<SourceConfig> DefaultRecruitmentSources();

}  // namespace maroon

#endif  // MAROON_DATAGEN_SOURCE_SIMULATOR_H_
