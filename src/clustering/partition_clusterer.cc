#include "clustering/partition_clusterer.h"

#include <algorithm>

namespace maroon {

std::vector<Cluster> PartitionClusterer::ClusterRecords(
    const std::vector<const TemporalRecord*>& records,
    ValueSetSimilarityMemo& memo) const {
  std::vector<const TemporalRecord*> ordered = records;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TemporalRecord* a, const TemporalRecord* b) {
                     if (a->timestamp() != b->timestamp()) {
                       return a->timestamp() < b->timestamp();
                     }
                     return a->id() < b->id();
                   });

  std::vector<Cluster> clusters;
  // Cached interned majority states, refreshed when a cluster gains a
  // record.
  std::vector<ValueSetSimilarityMemo::InternedValues> states;

  for (const TemporalRecord* record : ordered) {
    const ValueSetSimilarityMemo::InternedValues values =
        memo.Intern(record->values());
    double best_similarity = -1.0;
    size_t best_index = 0;
    for (size_t i = 0; i < clusters.size(); ++i) {
      const double sim = memo.MeanSimilarity(values, states[i]);
      if (sim > best_similarity) {
        best_similarity = sim;
        best_index = i;
      }
    }
    if (best_similarity >= options_.similarity_threshold &&
        !clusters.empty()) {
      clusters[best_index].Add(*record);
      states[best_index] = memo.Intern(clusters[best_index].MajorityState());
    } else {
      Cluster fresh;
      fresh.Add(*record);
      states.push_back(memo.Intern(fresh.MajorityState()));
      clusters.push_back(std::move(fresh));
    }
  }
  return clusters;
}

}  // namespace maroon
