#ifndef MAROON_FRESHNESS_FRESHNESS_MODEL_H_
#define MAROON_FRESHNESS_FRESHNESS_MODEL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/entity_profile.h"
#include "core/temporal_record.h"
#include "core/temporal_sequence.h"
#include "core/value.h"

namespace maroon {

/// Eq. 9: the update delay η of value `v` published at instant `t`, relative
/// to the (assumed correct) profile sequence `seq`:
///   - 0 if `t` lies inside an interval during which `v` holds;
///   - t - t_max otherwise, where t_max is the latest instant before `t` at
///     which `v` holds;
///   - nullopt if `v` never occurs in `seq` at or before `t` (the paper only
///     defines delay for values present in the profile).
std::optional<int64_t> ComputeDelay(const TemporalSequence& seq, const Value& v,
                                    TimePoint t);

/// The paper's §4.2 source-quality model: for each source s and attribute A,
/// a distribution Delay(η, s, A) over update delays, learnt by comparing
/// published records against the true profiles of the entities they refer to.
class FreshnessModel {
 public:
  /// Records one observed delay for (source, attribute).
  void AddObservation(SourceId source, const Attribute& attribute,
                      int64_t delay);

  /// Normalizes the per-(source, attribute) counts into distributions.
  /// Must be called after the last AddObservation and before queries.
  void Finalize();

  /// Delay(η, s, A): the probability that source `s` publishes attribute `A`
  /// with delay exactly `η`. A (source, attribute) pair without training
  /// observations is treated as perfectly fresh: Delay(0)=1, else 0.
  double Delay(int64_t eta, SourceId source, const Attribute& attribute) const;

  /// True iff Delay(0, s, A) > mu for every attribute in `attributes`
  /// (the paper's fresh-source predicate, §4.3.1).
  bool IsFresh(SourceId source, const std::vector<Attribute>& attributes,
               double mu) const;

  /// Mean Delay(0, s, A) over `attributes` — the "Freshness" column of the
  /// paper's Table 6.
  double FreshnessScore(SourceId source,
                        const std::vector<Attribute>& attributes) const;

  /// Number of observations recorded for (source, attribute).
  int64_t ObservationCount(SourceId source, const Attribute& attribute) const;

  /// Learns a freshness model from `dataset`: every record whose ground-truth
  /// label is in `training_entities` is compared against that entity's
  /// ground-truth profile via Eq. 9. `training_entities` must be target
  /// entities of the dataset; unknown ids are skipped.
  static FreshnessModel Train(const Dataset& dataset,
                              const std::vector<EntityId>& training_entities);

  /// Serializes the learnt delay counts to a versioned CSV text.
  std::string Serialize() const;

  /// Reconstructs a finalized model from Serialize() output. Text in any
  /// other format version is refused with InvalidArgument.
  static Result<FreshnessModel> Deserialize(const std::string& text);

 private:
  struct Distribution {
    std::map<int64_t, int64_t> counts;
    std::map<int64_t, double> probabilities;
    int64_t total = 0;
  };

  std::map<std::pair<SourceId, Attribute>, Distribution> distributions_;
  bool finalized_ = false;
};

}  // namespace maroon

#endif  // MAROON_FRESHNESS_FRESHNESS_MODEL_H_
