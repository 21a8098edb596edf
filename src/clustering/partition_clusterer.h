#ifndef MAROON_CLUSTERING_PARTITION_CLUSTERER_H_
#define MAROON_CLUSTERING_PARTITION_CLUSTERER_H_

#include <vector>

#include "clustering/cluster.h"
#include "core/temporal_record.h"
#include "similarity/record_similarity.h"

namespace maroon {

/// Options for the PARTITION clusterer.
struct PartitionOptions {
  /// A record joins the most similar cluster if the similarity reaches this;
  /// otherwise it seeds a new cluster.
  double similarity_threshold = 0.8;
};

/// The traditional single-pass PARTITION clustering algorithm
/// (Hassanzadeh et al., PVLDB 2009 — the paper's ref. [13]), used to seed
/// MAROON's Phase I with clusters of fresh-source records.
///
/// Records are processed in ascending timestamp order; each record is
/// compared against the majority state of every existing cluster and joins
/// the best match above the threshold, else starts a new cluster. The
/// algorithm is agnostic to entity evolution and source freshness by design —
/// that is exactly the baseline behaviour the paper builds on.
class PartitionClusterer {
 public:
  explicit PartitionClusterer(PartitionOptions options = {})
      : options_(options) {}

  /// Groups `records` into clusters, scoring each (record, cluster state)
  /// pair through `memo`. Pointers must stay valid for the call.
  std::vector<Cluster> ClusterRecords(
      const std::vector<const TemporalRecord*>& records,
      ValueSetSimilarityMemo& memo) const;

  const PartitionOptions& options() const { return options_; }

 private:
  PartitionOptions options_;
};

}  // namespace maroon

#endif  // MAROON_CLUSTERING_PARTITION_CLUSTERER_H_
