#include "baselines/afds_linker.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "clustering/partition_clusterer.h"
#include "common/clock.h"

namespace maroon {

AfdsLinker::AfdsLinker(const SimilarityCalculator* similarity,
                       const TemporalModel* temporal_model,
                       std::vector<Attribute> schema_attributes,
                       AfdsOptions options)
    : similarity_(similarity),
      temporal_model_(temporal_model),
      schema_attributes_(std::move(schema_attributes)),
      options_(options) {}

double AfdsLinker::EvolutionScore(const Cluster& earlier,
                                  const Cluster& later) const {
  // Phase B: can the entity in `earlier`'s state evolve into `later`'s
  // state? Each shared attribute contributes its value similarity weighted
  // by the temporal-model probability of the transition.
  const auto earlier_state = earlier.MajorityState();
  const auto later_state = later.MajorityState();
  const Interval later_interval(later.tmin(), later.tmax());

  double weighted = 0.0;
  double weight_total = 0.0;
  for (const auto& [attribute, earlier_values] : earlier_state) {
    auto it = later_state.find(attribute);
    if (it == later_state.end()) continue;
    // The earlier state as a one-triple history for the temporal model.
    TemporalSequence history;
    if (!history
             .Append(Triple(Interval(earlier.tmin(), earlier.tmax()),
                            earlier_values))
             .ok()) {
      continue;
    }
    const double weight = temporal_model_->StateProbability(
        attribute, history, it->second, later_interval);
    const double sim =
        similarity_->ValueSetSimilarity(earlier_values, it->second);
    // A high transition probability lets dissimilar states merge; a low one
    // requires near-identical values.
    weighted += std::max(sim, weight);
    weight_total += 1.0;
  }
  return weight_total > 0.0 ? weighted / weight_total : 0.0;
}

std::vector<Cluster> AfdsLinker::ClusterRecords(
    const std::vector<const TemporalRecord*>& records) const {
  // Phase A: static value-similarity clustering (time-agnostic).
  PartitionClusterer partitioner(PartitionOptions{options_.static_threshold});
  ValueSetSimilarityMemo memo(*similarity_);
  std::vector<Cluster> clusters = partitioner.ClusterRecords(records, memo);

  // Phase B: merge clusters whose states an entity could evolve between.
  // Clusters ordered by start time; each later cluster is tested against the
  // earlier ones and merged into the best-evolving predecessor.
  std::sort(clusters.begin(), clusters.end(),
            [](const Cluster& a, const Cluster& b) {
              if (a.tmin() != b.tmin()) return a.tmin() < b.tmin();
              return a.tmax() < b.tmax();
            });
  std::map<RecordId, const TemporalRecord*> by_id;
  for (const TemporalRecord* r : records) by_id[r->id()] = r;

  std::vector<Cluster> merged;
  for (Cluster& current : clusters) {
    double best_score = -1.0;
    size_t best_index = 0;
    for (size_t i = 0; i < merged.size(); ++i) {
      const double score = EvolutionScore(merged[i], current);
      if (score > best_score) {
        best_score = score;
        best_index = i;
      }
    }
    if (!merged.empty() && best_score >= options_.merge_threshold) {
      for (RecordId id : current.records()) {
        auto it = by_id.find(id);
        if (it != by_id.end()) merged[best_index].Add(*it->second);
      }
    } else {
      merged.push_back(std::move(current));
    }
  }
  return merged;
}

double AfdsLinker::LinkScore(const EntityProfile& profile,
                             const Cluster& cluster) const {
  const auto state = cluster.MajorityState();
  const Interval interval(cluster.tmin(), cluster.tmax());
  double weighted = 0.0;
  double weight_total = 0.0;
  for (const auto& [attribute, values] : state) {
    const TemporalSequence& seq = profile.sequence(attribute);
    if (seq.empty()) continue;
    double best_sim = 0.0;
    for (const Triple& tr : seq.triples()) {
      best_sim = std::max(
          best_sim, similarity_->ValueSetSimilarity(tr.values, values));
    }
    const double weight =
        temporal_model_->StateProbability(attribute, seq, values, interval);
    // Weighted attribute similarity: the temporal model reweights how much
    // exact value agreement matters for this attribute at this time gap.
    weighted += weight * best_sim + (1.0 - weight) * best_sim * best_sim;
    weight_total += 1.0;
  }
  return weight_total > 0.0 ? weighted / weight_total : 0.0;
}

AfdsResult AfdsLinker::Link(
    const EntityProfile& clean_profile,
    const std::vector<const TemporalRecord*>& records) const {
  AfdsResult result;

  auto start = std::chrono::steady_clock::now();
  std::vector<Cluster> clusters = ClusterRecords(records);
  result.num_clusters = clusters.size();
  result.phase1_seconds = SecondsSince(start);

  start = std::chrono::steady_clock::now();
  std::map<RecordId, const TemporalRecord*> by_id;
  for (const TemporalRecord* r : records) by_id[r->id()] = r;

  std::vector<const TemporalRecord*> matched;
  for (const Cluster& c : clusters) {
    if (LinkScore(clean_profile, c) < options_.link_threshold) continue;
    for (RecordId id : c.records()) {
      result.matched_records.push_back(id);
      auto it = by_id.find(id);
      if (it != by_id.end()) matched.push_back(it->second);
    }
  }
  std::sort(result.matched_records.begin(), result.matched_records.end());
  result.matched_records.erase(
      std::unique(result.matched_records.begin(),
                  result.matched_records.end()),
      result.matched_records.end());

  result.augmented_profile = BuildProfileFromRecords(clean_profile, matched);
  result.phase2_seconds = SecondsSince(start);
  return result;
}

EntityProfile BuildProfileFromRecords(
    const EntityProfile& base,
    std::vector<const TemporalRecord*> matched_records) {
  EntityProfile out = base;
  std::sort(matched_records.begin(), matched_records.end(),
            [](const TemporalRecord* a, const TemporalRecord* b) {
              if (a->timestamp() != b->timestamp()) {
                return a->timestamp() < b->timestamp();
              }
              return a->id() < b->id();
            });
  for (size_t i = 0; i < matched_records.size(); ++i) {
    const TemporalRecord* r = matched_records[i];
    // The record's values hold from its timestamp until just before the next
    // record (paper §5.5); the last record covers its own instant.
    TimePoint end = r->timestamp();
    if (i + 1 < matched_records.size()) {
      end = std::max<TimePoint>(r->timestamp(),
                                matched_records[i + 1]->timestamp() - 1);
    }
    for (const auto& [attribute, values] : r->values()) {
      (void)out.sequence(attribute)
          .Insert(Triple(Interval(r->timestamp(), end), values));
    }
  }
  out.Normalize();
  return out;
}

}  // namespace maroon
