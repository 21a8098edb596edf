#include "matching/profile_matcher.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace maroon {

namespace {

/// Incremental Eq. 14 state for one (cluster, attribute): the running sum of
/// interval probabilities over profile triples and the triple count.
struct TransitState {
  double sum = 0.0;
  size_t count = 0;

  double Value() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// True iff the cluster's value set conflicts with the profile on a
/// single-valued attribute at some instant of the cluster's interval:
/// both sides non-empty and sharing no value.
bool ConflictsWithProfile(const EntityProfile& profile,
                          const GeneratedCluster& gc,
                          const std::vector<Attribute>& single_valued) {
  for (const Attribute& attribute : single_valued) {
    const ValueSet& cluster_values = gc.signature.ValuesOf(attribute);
    if (cluster_values.empty()) continue;
    const TemporalSequence& seq = profile.sequence(attribute);
    if (seq.empty()) continue;
    for (TimePoint t = gc.signature.interval.begin;
         t <= gc.signature.interval.end; ++t) {
      const ValueSet profile_values = seq.ValuesAt(t);
      if (profile_values.empty()) continue;
      if (ValueSetIntersection(profile_values, cluster_values).empty()) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

ProfileMatcher::ProfileMatcher(const TransitionModel* transition,
                               std::vector<Attribute> schema_attributes,
                               ProfileMatcherOptions options)
    : transition_(transition),
      schema_attributes_(std::move(schema_attributes)),
      options_(std::move(options)) {}

double ProfileMatcher::MatchScore(const EntityProfile& profile,
                                  const GeneratedCluster& cluster) const {
  if (schema_attributes_.empty()) return 0.0;
  double total = 0.0;
  for (const Attribute& attribute : schema_attributes_) {
    const double conf = cluster.signature.ConfidenceOf(attribute);
    if (conf <= 0.0) continue;
    const ValueSet& to = cluster.signature.ValuesOf(attribute);
    if (to.empty()) continue;
    total += conf * transition_->SequenceToStateProbability(
                        attribute, profile.sequence(attribute), to,
                        cluster.signature.interval);
  }
  const double score = total / static_cast<double>(schema_attributes_.size());
  // A degenerate transition model can emit NaN/∞; a non-finite score carries
  // no ranking information, so report "no match" rather than poison callers.
  return std::isfinite(score) ? score : 0.0;
}

MatchResult ProfileMatcher::MatchAndAugment(
    const EntityProfile& profile,
    const std::vector<GeneratedCluster>& clusters) const {
  MAROON_TRACE_SPAN("phase2.match_and_augment");
  obs::Histogram* score_histogram =
      MAROON_HISTOGRAM("maroon.phase2.best_score");
  MatchResult result;
  result.augmented_profile = profile;
  EntityProfile& working = result.augmented_profile;

  const size_t n = clusters.size();
  std::vector<bool> active(n, true);

  // Incremental Eq. 14 state per (cluster, schema attribute).
  std::vector<std::map<Attribute, TransitState>> transit(n);
  for (size_t i = 0; i < n; ++i) {
    for (const Attribute& attribute : schema_attributes_) {
      const ValueSet& to = clusters[i].signature.ValuesOf(attribute);
      if (to.empty()) continue;
      TransitState state;
      const TemporalSequence& seq = working.sequence(attribute);
      for (const Triple& tr : seq.triples()) {
        state.sum += transition_->IntervalProbability(
            attribute, tr.values, to, tr.interval,
            clusters[i].signature.interval);
        ++state.count;
      }
      transit[i][attribute] = state;
    }
  }

  const auto score_of = [&](size_t i) {
    if (schema_attributes_.empty()) return 0.0;
    double total = 0.0;
    for (const auto& [attribute, state] : transit[i]) {
      const double conf = clusters[i].signature.ConfidenceOf(attribute);
      if (conf <= 0.0) continue;
      total += conf * state.Value();
    }
    return total / static_cast<double>(schema_attributes_.size());
  };

  size_t remaining = n;
  while (remaining > 0) {
    ++result.iterations;

    // Lines 3-5: the best-scoring active cluster that passes the declarative
    // constraints. Infeasible clusters are pruned on the spot.
    double best_score = -1.0;
    size_t best = 0;
    bool found = false;
    while (!found) {
      best_score = -1.0;
      for (size_t i = 0; i < n; ++i) {
        if (!active[i]) continue;
        const double s = score_of(i);
        if (!std::isfinite(s)) {
          // A NaN/∞ score means the transition or freshness model is
          // degenerate for this cluster; it can never be ranked
          // meaningfully, so retire it instead of letting NaN poison the
          // comparisons below.
          active[i] = false;
          --remaining;
          ++result.degenerate_scores;
          result.pruned_clusters.push_back(i);
          continue;
        }
        if (s > best_score) {
          best_score = s;
          best = i;
        }
      }
      if (best_score <= options_.theta) break;  // lines 14-15.
      if (options_.constraints == nullptr) {
        found = true;
        break;
      }
      bool feasible = true;
      for (const auto& [attribute, values] :
           clusters[best].signature.values) {
        if (values.empty()) continue;
        if (!options_.constraints
                 ->ViolationsOfInsert(working, attribute, values,
                                      clusters[best].signature.interval)
                 .empty()) {
          feasible = false;
          break;
        }
      }
      if (feasible) {
        found = true;
      } else {
        active[best] = false;
        --remaining;
        result.pruned_clusters.push_back(best);
        if (remaining == 0) break;
      }
    }
    // Eq. 15 decision value of this iteration (one observation per
    // iteration, not per candidate).
    if (best_score >= 0.0) score_histogram->Record(best_score);
    if (!found || best_score <= options_.theta) break;

    // Lines 7-8: link the cluster.
    const GeneratedCluster& chosen = clusters[best];
    for (RecordId id : chosen.cluster.records()) {
      result.matched_records.push_back(id);
    }
    result.linked_clusters.push_back(best);
    active[best] = false;
    --remaining;

    // Lines 9-10: insert the cluster's state into the profile and extend the
    // incremental Eq. 14 sums of the surviving clusters with the new triples.
    std::vector<std::pair<Attribute, Triple>> new_triples;
    for (const auto& [attribute, values] : chosen.signature.values) {
      if (values.empty()) continue;
      Triple triple(chosen.signature.interval, values);
      if (working.sequence(attribute).Insert(triple).ok()) {
        new_triples.emplace_back(attribute, std::move(triple));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (const auto& [attribute, triple] : new_triples) {
        auto it = transit[i].find(attribute);
        if (it == transit[i].end()) continue;
        const ValueSet& to = clusters[i].signature.ValuesOf(attribute);
        it->second.sum += transition_->IntervalProbability(
            attribute, triple.values, to, triple.interval,
            clusters[i].signature.interval);
        ++it->second.count;
      }
    }

    // Lines 11-13: prune clusters conflicting with the updated profile on a
    // single-valued attribute.
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      if (ConflictsWithProfile(working, clusters[i],
                               options_.single_valued_attributes)) {
        active[i] = false;
        --remaining;
        result.pruned_clusters.push_back(i);
      }
    }
  }

  MAROON_COUNTER("maroon.phase2.iterations")
      ->Add(static_cast<int64_t>(result.iterations));
  MAROON_COUNTER("maroon.phase2.clusters_linked")
      ->Add(static_cast<int64_t>(result.linked_clusters.size()));
  MAROON_COUNTER("maroon.phase2.clusters_pruned")
      ->Add(static_cast<int64_t>(result.pruned_clusters.size()));
  MAROON_COUNTER("maroon.phase2.degenerate_scores")
      ->Add(static_cast<int64_t>(result.degenerate_scores));

  // Post-processing: sort triples and resolve overlapping intervals.
  working.Normalize();
  std::sort(result.matched_records.begin(), result.matched_records.end());
  result.matched_records.erase(
      std::unique(result.matched_records.begin(),
                  result.matched_records.end()),
      result.matched_records.end());
  return result;
}

}  // namespace maroon
