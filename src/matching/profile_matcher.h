#ifndef MAROON_MATCHING_PROFILE_MATCHER_H_
#define MAROON_MATCHING_PROFILE_MATCHER_H_

#include <vector>

#include "core/entity_profile.h"
#include "core/temporal_record.h"
#include "core/value.h"
#include "matching/cluster_generator.h"
#include "matching/constraints.h"
#include "transition/transition_model.h"

namespace maroon {

/// Options for Phase II (Algorithm 3).
struct ProfileMatcherOptions {
  /// θ: only clusters whose match score (Eq. 15) exceeds this are linked.
  double theta = 0.05;
  /// Attributes for which an entity cannot hold two different values at the
  /// same instant (e.g., Title, Location); used for conflict pruning.
  std::vector<Attribute> single_valued_attributes;
  /// Optional declarative temporal constraints (must outlive the matcher).
  /// A cluster whose insertion would violate any rule is rejected and
  /// removed from consideration, regardless of its match score.
  const ConstraintSet* constraints = nullptr;
};

/// The outcome of Phase II for one target entity.
struct MatchResult {
  /// R': the ids of all records in the linked clusters.
  std::vector<RecordId> matched_records;
  /// The augmented, normalized profile.
  EntityProfile augmented_profile;
  /// Indices (into the Phase-I cluster vector) of linked clusters, in match
  /// order.
  std::vector<size_t> linked_clusters;
  /// Indices of clusters pruned for conflicting with a linked cluster.
  std::vector<size_t> pruned_clusters;
  /// Clusters discarded because a degenerate transition or freshness model
  /// produced a non-finite (NaN/∞) match score. Such clusters are excluded
  /// rather than allowed to dominate or poison the iteration.
  size_t degenerate_scores = 0;
  size_t iterations = 0;
};

/// Phase II of MAROON (paper Algorithm 3): iteratively links the cluster
/// with the highest match score
///
///   match(Φ_n, c) = (1/|A|) Σ_A conf(c, A) · transitPr(Φ_n[A], c, A)
///
/// to the profile, augments the profile with the cluster's state, prunes
/// clusters that conflict on single-valued attributes, and repeats until no
/// cluster exceeds θ. Eq. 14 sums are maintained incrementally as the
/// profile grows.
class ProfileMatcher {
 public:
  /// `transition` must outlive the matcher.
  ProfileMatcher(const TransitionModel* transition,
                 std::vector<Attribute> schema_attributes,
                 ProfileMatcherOptions options = {});

  /// Runs Algorithm 3 starting from `profile` over `clusters`.
  [[nodiscard]] MatchResult MatchAndAugment(
      const EntityProfile& profile,
      const std::vector<GeneratedCluster>& clusters) const;

  /// match(Φ_n, c) per Eq. 15 (non-incremental; used by tests and one-off
  /// scoring).
  [[nodiscard]] double MatchScore(const EntityProfile& profile,
                                  const GeneratedCluster& cluster) const;

  const ProfileMatcherOptions& options() const { return options_; }

 private:
  const TransitionModel* transition_;
  std::vector<Attribute> schema_attributes_;
  ProfileMatcherOptions options_;
};

}  // namespace maroon

#endif  // MAROON_MATCHING_PROFILE_MATCHER_H_
