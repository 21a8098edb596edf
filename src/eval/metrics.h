#ifndef MAROON_EVAL_METRICS_H_
#define MAROON_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

#include "core/entity_profile.h"
#include "core/temporal_record.h"
#include "core/value.h"

namespace maroon {

/// Record-linkage quality for one target entity (paper §5.3):
///   Precision = |Match ∩ Result| / |Result|,
///   Recall    = |Match ∩ Result| / |Match|.
struct PrecisionRecall {
  double precision = 0.0;
  double recall = 0.0;
  size_t true_positives = 0;
  size_t result_size = 0;
  size_t match_size = 0;

  double F1() const {
    return (precision + recall) > 0.0
               ? 2.0 * precision * recall / (precision + recall)
               : 0.0;
  }
};

/// Computes precision/recall of `result` against ground truth `match`.
/// Both are record-id sets (unsorted input accepted). By convention an empty
/// result has precision 1 (no wrong links) and an empty match set recall 1.
PrecisionRecall ComputePrecisionRecall(std::vector<RecordId> result,
                                       std::vector<RecordId> match);

/// Profile quality for one target entity (paper §5.5):
///   Accuracy     = |GT ∩ Result| / |Result|,
///   Completeness = |GT ∩ Result| / |GT|,
/// where profiles are compared as sets of (attribute, instant, value) facts
/// over the given schema attributes.
struct ProfileQuality {
  double accuracy = 0.0;
  double completeness = 0.0;
  size_t shared_facts = 0;
  size_t result_facts = 0;
  size_t truth_facts = 0;
};

/// Enumerates the (attribute, instant, value) facts of `profile` restricted
/// to `attributes` and counts overlaps.
ProfileQuality CompareProfiles(const EntityProfile& result,
                               const EntityProfile& ground_truth,
                               const std::vector<Attribute>& attributes);

/// Aggregates per-entity numbers into macro averages.
class MeanAccumulator {
 public:
  void Add(double value) {
    sum_ += value;
    ++count_;
  }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  size_t count() const { return count_; }

 private:
  double sum_ = 0.0;
  size_t count_ = 0;
};

}  // namespace maroon

#endif  // MAROON_EVAL_METRICS_H_
