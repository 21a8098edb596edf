#include "matching/cluster_generator.h"

#include <algorithm>
#include <map>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace maroon {

ClusterGenerator::ClusterGenerator(const SimilarityCalculator* similarity,
                                   const FreshnessModel* freshness,
                                   std::vector<Attribute> schema_attributes,
                                   ClusterGeneratorOptions options)
    : similarity_(similarity),
      freshness_(freshness),
      schema_attributes_(std::move(schema_attributes)),
      options_(options) {}

bool ClusterGenerator::SourceIsFresh(SourceId source) const {
  if (!options_.use_source_freshness) return true;
  return freshness_->IsFresh(source, schema_attributes_, options_.mu);
}

double ClusterGenerator::DelayProbability(int64_t eta, SourceId source,
                                          const Attribute& attribute) const {
  if (!options_.use_source_freshness) return 1.0;
  return freshness_->Delay(eta, source, attribute);
}

double ClusterGenerator::SourceReliability(SourceId source,
                                           const Attribute& attribute) const {
  if (reliability_ == nullptr) return 1.0;
  return reliability_->Reliability(source, attribute);
}

std::vector<GeneratedCluster> ClusterGenerator::Generate(
    const std::vector<const TemporalRecord*>& records) const {
  MAROON_TRACE_SPAN("phase1.generate");
  // Line 1: split by source freshness.
  std::vector<const TemporalRecord*> fresh;
  std::vector<const TemporalRecord*> stale;
  for (const TemporalRecord* r : records) {
    (SourceIsFresh(r->source()) ? fresh : stale).push_back(r);
  }
  MAROON_COUNTER("maroon.phase1.fresh_records")
      ->Add(static_cast<int64_t>(fresh.size()));
  MAROON_COUNTER("maroon.phase1.stale_records")
      ->Add(static_cast<int64_t>(stale.size()));

  // Every value-set comparison of this call goes through one memo, so each
  // distinct pair is scored once.
  ValueSetSimilarityMemo memo(*similarity_);

  // Line 2: traditional single-pass clustering of the fresh records.
  std::vector<Cluster> initial;
  {
    MAROON_TRACE_SPAN("phase1.partition");
    PartitionClusterer partitioner(
        PartitionOptions{options_.partition_threshold});
    initial = partitioner.ClusterRecords(fresh, memo);
  }

  // Lines 3-7: signatures with the fresh span and majority-vote values.
  std::vector<GeneratedCluster> clusters;
  clusters.reserve(initial.size());
  for (Cluster& c : initial) {
    GeneratedCluster gc;
    gc.signature = c.BuildSignature(/*initial_confidence=*/0.0);
    gc.cluster = std::move(c);
    clusters.push_back(std::move(gc));
  }

  // Lines 8-19: place stale records. Processed in (timestamp, id) order for
  // determinism; each record may land in several clusters, one per attribute
  // whose delayed value plausibly describes that cluster's period (Eq. 10).
  // Placement decisions are tallied here and published once per call.
  int64_t placements_accepted = 0;
  int64_t placements_rejected = 0;
  std::vector<const TemporalRecord*> ordered_stale = stale;
  std::stable_sort(ordered_stale.begin(), ordered_stale.end(),
                   [](const TemporalRecord* a, const TemporalRecord* b) {
                     if (a->timestamp() != b->timestamp()) {
                       return a->timestamp() < b->timestamp();
                     }
                     return a->id() < b->id();
                   });

  {
    MAROON_TRACE_SPAN("phase1.stale_placement");
    for (const TemporalRecord* r : ordered_stale) {
      std::set<Attribute> covered;
      for (GeneratedCluster& gc : clusters) {
        const Interval span = gc.signature.interval;
        if (r->timestamp() < span.begin) continue;  // line 11: r.t >= c.tmin
        for (const auto& [attribute, values] : r->values()) {
          const int64_t eta = std::max<int64_t>(
              0, static_cast<int64_t>(r->timestamp()) - span.end);
          if (DelayProbability(eta, r->source(), attribute) <=
              options_.mu_prime) {
            ++placements_rejected;
            continue;  // Eq. 10 fails.
          }
          const ValueSet& cluster_values = gc.signature.ValuesOf(attribute);
          if (cluster_values.empty()) continue;
          if (memo.Similarity(cluster_values, values) <
              options_.value_match_threshold) {
            continue;  // line 14: c.A !~ r.A
          }
          gc.cluster.AddForAttribute(*r, attribute);  // line 15
          ++placements_accepted;
          covered.insert(attribute);  // line 16
        }
      }
      // Lines 17-19: attributes not captured anywhere seed a new cluster.
      std::vector<Attribute> uncovered;
      for (const auto& [attribute, values] : r->values()) {
        if (covered.count(attribute) == 0) uncovered.push_back(attribute);
      }
      if (!uncovered.empty()) {
        GeneratedCluster gc;
        for (const Attribute& attribute : uncovered) {
          gc.cluster.AddForAttribute(*r, attribute);
        }
        gc.signature = gc.cluster.BuildSignature(0.0);
        gc.signature.interval = Interval(r->timestamp(), r->timestamp());
        clusters.push_back(std::move(gc));
      }
    }
  }

  // Refresh fused values (stale joins may have added occurrences) while
  // keeping each signature's creation-time interval, then compute Eq. 11.
  std::map<RecordId, const TemporalRecord*> by_id;
  for (const TemporalRecord* r : records) by_id[r->id()] = r;
  for (GeneratedCluster& gc : clusters) {
    const Interval span = gc.signature.interval;
    gc.signature = gc.cluster.BuildSignature(0.0);
    gc.signature.interval = span;
    if (fusion_ != nullptr) {
      std::vector<const TemporalRecord*> members;
      for (RecordId id : gc.cluster.records()) {
        auto it = by_id.find(id);
        if (it != by_id.end()) members.push_back(it->second);
      }
      for (auto& [attribute, values] : gc.signature.values) {
        auto counts_it = gc.cluster.value_counts().find(attribute);
        if (counts_it == gc.cluster.value_counts().end()) continue;
        values = fusion_->Fuse(attribute, counts_it->second, members);
      }
    }
  }
  ComputeConfidences(by_id, clusters);
  MAROON_COUNTER("maroon.phase1.stale_placements_accepted")
      ->Add(placements_accepted);
  MAROON_COUNTER("maroon.phase1.stale_placements_rejected")
      ->Add(placements_rejected);
  MAROON_COUNTER("maroon.phase1.similarity_memo_hits")->Add(memo.hits());
  MAROON_COUNTER("maroon.phase1.similarity_memo_misses")->Add(memo.misses());
  MAROON_COUNTER("maroon.phase1.clusters_formed")
      ->Add(static_cast<int64_t>(clusters.size()));
  return clusters;
}

void ClusterGenerator::ComputeConfidences(
    const std::map<RecordId, const TemporalRecord*>& by_id,
    std::vector<GeneratedCluster>& clusters) const {
  for (GeneratedCluster& gc : clusters) {
    // Group member records by source.
    std::map<SourceId, std::vector<const TemporalRecord*>> by_source;
    for (RecordId id : gc.cluster.records()) {
      auto it = by_id.find(id);
      if (it != by_id.end()) by_source[it->second->source()].push_back(it->second);
    }
    const TimePoint tmax = gc.signature.interval.end;
    for (const auto& [attribute, values] : gc.signature.values) {
      // Eq. 11: per source, the mean delay probability of its member
      // records; confidences sum over sources, each weighted by the
      // source's publication reliability (1.0 when the extension is off).
      double conf = 0.0;
      for (const auto& [source, members] : by_source) {
        double sum = 0.0;
        for (const TemporalRecord* r : members) {
          const int64_t eta = std::max<int64_t>(
              0, static_cast<int64_t>(r->timestamp()) - tmax);
          sum += DelayProbability(eta, source, attribute);
        }
        conf += SourceReliability(source, attribute) * sum /
                static_cast<double>(members.size());
      }
      gc.signature.confidence[attribute] = conf;
      // Eq. 11 confidence distribution; one observation per (cluster,
      // attribute).
      MAROON_HISTOGRAM("maroon.phase1.confidence")->Record(conf);
    }
  }
}

}  // namespace maroon
