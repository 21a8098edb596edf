#ifndef MAROON_FRESHNESS_RELIABILITY_MODEL_H_
#define MAROON_FRESHNESS_RELIABILITY_MODEL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/dataset.h"
#include "core/entity_profile.h"
#include "core/temporal_record.h"
#include "core/value.h"

namespace maroon {

/// Options for the reliability model.
struct ReliabilityModelOptions {
  /// Reliability reported for a (source, attribute) with no training
  /// observations.
  double default_reliability = 1.0;
  /// Laplace smoothing: reliability = (correct + α) / (total + 2α).
  double smoothing_alpha = 1.0;
};

/// Per-source per-attribute publication reliability — the probability that a
/// published value is *genuine* (some state of the entity) rather than
/// erroneous.
///
/// The paper handles erroneous values by reference to Li et al. (KDD 2014,
/// its ref. [17]) and lists reliability as future work (§6); this model
/// implements that extension: a published value counts as an error when it
/// never occurs anywhere in the referred entity's true history (a stale
/// value is *not* an error — staleness is the freshness model's job).
///
/// Attached through `Maroon::SetReliabilityModel`, it weighs each source's
/// Eq. 11 confidence contribution by its reliability, lowering the impact of
/// noisy sources on matching decisions.
class ReliabilityModel {
 public:
  explicit ReliabilityModel(ReliabilityModelOptions options = {})
      : options_(options) {}

  /// Records one publication outcome for (source, attribute).
  void AddObservation(SourceId source, const Attribute& attribute,
                      bool correct);

  /// Smoothed probability that `source` publishes a genuine value of
  /// `attribute`.
  double Reliability(SourceId source, const Attribute& attribute) const;

  /// Raw error rate (errors / total); 0 when untrained.
  double ErrorRate(SourceId source, const Attribute& attribute) const;

  int64_t ObservationCount(SourceId source, const Attribute& attribute) const;

  /// Learns reliabilities from `dataset`: each record labelled with a
  /// training entity contributes one observation per published value —
  /// correct iff the value occurs somewhere in that entity's ground-truth
  /// sequence for the attribute.
  static ReliabilityModel Train(const Dataset& dataset,
                                const std::vector<EntityId>& training_entities,
                                ReliabilityModelOptions options = {});

 private:
  struct Counts {
    int64_t correct = 0;
    int64_t total = 0;
  };
  std::map<std::pair<SourceId, Attribute>, Counts> counts_;
  ReliabilityModelOptions options_;
};

}  // namespace maroon

#endif  // MAROON_FRESHNESS_RELIABILITY_MODEL_H_
