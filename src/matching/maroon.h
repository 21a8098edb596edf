#ifndef MAROON_MATCHING_MAROON_H_
#define MAROON_MATCHING_MAROON_H_

#include <vector>

#include "core/entity_profile.h"
#include "core/temporal_record.h"
#include "freshness/freshness_model.h"
#include "matching/cluster_generator.h"
#include "matching/profile_matcher.h"
#include "similarity/record_similarity.h"
#include "transition/transition_model.h"

namespace maroon {

/// End-to-end configuration of the MAROON framework. Defaults follow the
/// paper's §5.1 (µ = 0.9, µ' = 0.2).
struct MaroonOptions {
  ClusterGeneratorOptions cluster;   // Phase I.
  ProfileMatcherOptions matcher;     // Phase II.
};

/// Wall-clock cost of one linkage run, split by phase (the quantities of the
/// paper's Figure 7).
struct PhaseTimings {
  double phase1_seconds = 0.0;  // cluster generation
  double phase2_seconds = 0.0;  // match & augment

  double total_seconds() const { return phase1_seconds + phase2_seconds; }

  PhaseTimings& operator+=(const PhaseTimings& other) {
    phase1_seconds += other.phase1_seconds;
    phase2_seconds += other.phase2_seconds;
    return *this;
  }
};

/// The result of linking one target entity's candidate records.
struct LinkResult {
  MatchResult match;
  /// Number of clusters produced by Phase I.
  size_t num_clusters = 0;
  /// Candidates skipped as degenerate before Phase I: null pointers and
  /// records carrying no attribute values at all. Non-zero counters signal
  /// upstream data problems without failing the link.
  size_t skipped_candidates = 0;
  PhaseTimings timings;
};

/// The MAROON framework facade: given the learnt transition and freshness
/// models, links temporal records to a target entity profile and augments it
/// (paper §4.3). One instance is reusable across target entities.
class Maroon {
 public:
  /// `transition`, `freshness`, and `similarity` must outlive this object.
  Maroon(const TransitionModel* transition, const FreshnessModel* freshness,
         const SimilarityCalculator* similarity,
         std::vector<Attribute> schema_attributes, MaroonOptions options = {});

  /// Attaches an optional source-reliability model (must outlive this
  /// object); nullptr detaches. Phase I weighs Eq. 11 confidences by it
  /// while it is attached.
  void SetReliabilityModel(const ReliabilityModel* reliability) {
    generator_.SetReliabilityModel(reliability);
  }

  /// Attaches an optional cluster-signature fusion strategy (must outlive
  /// this object); nullptr restores majority vote.
  void SetFusionStrategy(const FusionStrategy* fusion) {
    generator_.SetFusionStrategy(fusion);
  }

  /// Runs Phase I + Phase II for one target entity: `clean_profile` is the
  /// entity's known history, `candidates` the records to consider (pointers
  /// must stay valid for the call).
  [[nodiscard]] LinkResult Link(
      const EntityProfile& clean_profile,
      const std::vector<const TemporalRecord*>& candidates) const;

 private:
  ClusterGenerator generator_;  // Phase I, shared by every Link call.
  ProfileMatcher matcher_;      // Phase II, shared by every Link call.
};

}  // namespace maroon

#endif  // MAROON_MATCHING_MAROON_H_
