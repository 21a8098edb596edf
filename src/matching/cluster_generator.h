#ifndef MAROON_MATCHING_CLUSTER_GENERATOR_H_
#define MAROON_MATCHING_CLUSTER_GENERATOR_H_

#include <map>
#include <vector>

#include "clustering/cluster.h"
#include "clustering/fusion.h"
#include "clustering/partition_clusterer.h"
#include "core/temporal_record.h"
#include "core/value.h"
#include "freshness/freshness_model.h"
#include "freshness/reliability_model.h"
#include "similarity/record_similarity.h"

namespace maroon {

/// A cluster together with its signature. The signature interval is fixed
/// when the cluster is created (span of its fresh members, or the stale
/// record's timestamp for stale-seeded clusters) — later stale joins do NOT
/// extend it; that is the point of the source-aware placement (paper §4.3.1,
/// e.g. record r7 joining cluster c1 of Table 5 without stretching
/// [2001, 2002]).
struct GeneratedCluster {
  Cluster cluster;
  ClusterSignature signature;
};

/// Options for Phase I (Algorithm 2).
struct ClusterGeneratorOptions {
  /// µ: a source is fresh iff Delay(0, s, A) > µ for every attribute.
  double mu = 0.9;
  /// µ': a stale record's attribute may describe a cluster's period iff
  /// Delay(max(r.t - c.tmax, 0), r.s, A) > µ' (Eq. 10).
  double mu_prime = 0.2;
  /// Threshold for "c.A ≈ r.A" when placing stale values into a cluster.
  double value_match_threshold = 0.8;
  /// PARTITION threshold for the initial fresh-record clustering.
  double partition_threshold = 0.8;
  /// Ablation switch: when false, every source is treated as fresh and every
  /// delay probability as 1 — Phase I degenerates to plain PARTITION
  /// clustering with source-count confidences.
  bool use_source_freshness = true;
};

/// Phase I of MAROON's matching algorithm (paper Algorithm 2): reorganizes
/// the input records into clusters, each representing the state of some
/// entity over some period, placing possibly-stale records according to the
/// update-delay distributions of their sources, and computing per-attribute
/// confidence scores (Eq. 11).
class ClusterGenerator {
 public:
  /// `similarity` and `freshness` must outlive the generator.
  ClusterGenerator(const SimilarityCalculator* similarity,
                   const FreshnessModel* freshness,
                   std::vector<Attribute> schema_attributes,
                   ClusterGeneratorOptions options = {});

  /// Attaches an optional source-reliability model (must outlive the
  /// generator); nullptr detaches. When attached, each source's Eq. 11
  /// confidence contribution is weighted by its publication reliability
  /// (the §6 future-work extension after Li et al. KDD 2014).
  void SetReliabilityModel(const ReliabilityModel* reliability) {
    reliability_ = reliability;
  }

  /// Attaches an optional fusion strategy for cluster signatures (must
  /// outlive the generator); nullptr restores the paper's majority vote.
  void SetFusionStrategy(const FusionStrategy* fusion) { fusion_ = fusion; }

  /// Runs Algorithm 2 on `records` (pointers must stay valid for the call).
  std::vector<GeneratedCluster> Generate(
      const std::vector<const TemporalRecord*>& records) const;

  const ClusterGeneratorOptions& options() const { return options_; }

 private:
  double SourceReliability(SourceId source, const Attribute& attribute) const;

  bool SourceIsFresh(SourceId source) const;
  double DelayProbability(int64_t eta, SourceId source,
                          const Attribute& attribute) const;
  /// Eq. 11 for every cluster; `by_id` maps each input record's id to it.
  void ComputeConfidences(
      const std::map<RecordId, const TemporalRecord*>& by_id,
      std::vector<GeneratedCluster>& clusters) const;

  const SimilarityCalculator* similarity_;
  const FreshnessModel* freshness_;
  const ReliabilityModel* reliability_ = nullptr;
  const FusionStrategy* fusion_ = nullptr;
  std::vector<Attribute> schema_attributes_;
  ClusterGeneratorOptions options_;
};

}  // namespace maroon

#endif  // MAROON_MATCHING_CLUSTER_GENERATOR_H_
