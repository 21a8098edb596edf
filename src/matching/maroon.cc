#include "matching/maroon.h"

#include <chrono>

#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace maroon {

Maroon::Maroon(const TransitionModel* transition,
               const FreshnessModel* freshness,
               const SimilarityCalculator* similarity,
               std::vector<Attribute> schema_attributes, MaroonOptions options)
    : generator_(similarity, freshness, schema_attributes, options.cluster),
      matcher_(transition, std::move(schema_attributes),
               std::move(options.matcher)) {}

LinkResult Maroon::Link(
    const EntityProfile& clean_profile,
    const std::vector<const TemporalRecord*>& candidates) const {
  MAROON_TRACE_SPAN("link.entity");
  LinkResult result;

  // Degenerate candidates — null pointers or records with no attribute
  // values — carry no linkage evidence and would only distort cluster
  // signatures; skip them up front and report how many were dropped.
  std::vector<const TemporalRecord*> usable;
  usable.reserve(candidates.size());
  for (const TemporalRecord* record : candidates) {
    if (record == nullptr || record->values().empty()) {
      ++result.skipped_candidates;
      continue;
    }
    usable.push_back(record);
  }
  MAROON_COUNTER("maroon.link.skipped_candidates")
      ->Add(static_cast<int64_t>(result.skipped_candidates));
  MAROON_COUNTER("maroon.link.candidates")
      ->Add(static_cast<int64_t>(usable.size()));
  if (usable.empty()) {
    result.match.augmented_profile = clean_profile;
    result.match.augmented_profile.Normalize();
    return result;
  }

  auto start = std::chrono::steady_clock::now();
  const std::vector<GeneratedCluster> clusters = generator_.Generate(usable);
  result.num_clusters = clusters.size();
  result.timings.phase1_seconds = SecondsSince(start);
  MAROON_HISTOGRAM("maroon.link.phase1_seconds")
      ->Record(result.timings.phase1_seconds);

  start = std::chrono::steady_clock::now();
  result.match = matcher_.MatchAndAugment(clean_profile, clusters);
  result.timings.phase2_seconds = SecondsSince(start);
  MAROON_HISTOGRAM("maroon.link.phase2_seconds")
      ->Record(result.timings.phase2_seconds);
  // Per-entity link latency as the tail-latency histograms see it: both
  // phases, from already-taken clock reads (no extra reads on this path).
  MAROON_HISTOGRAM("maroon.link.entity_seconds")
      ->Record(result.timings.phase1_seconds + result.timings.phase2_seconds);
  return result;
}

}  // namespace maroon
