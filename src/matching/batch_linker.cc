#include "matching/batch_linker.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace maroon {

double BatchLinker::RecordProfileFit(const EntityProfile& profile,
                                     const TemporalRecord& record,
                                     const SimilarityCalculator& similarity) {
  double total = 0.0;
  size_t considered = 0;
  for (const auto& [attribute, values] : record.values()) {
    ++considered;
    const TemporalSequence& seq = profile.sequence(attribute);
    if (seq.empty()) continue;
    ValueSet reference = seq.ValuesAt(record.timestamp());
    if (reference.empty()) {
      for (const Triple& tr : seq.triples()) {
        reference = ValueSetUnion(reference, tr.values);
      }
    }
    const double sim = similarity.ValueSetSimilarity(reference, values);
    // A degenerate similarity (NaN/∞) contributes no evidence either way.
    if (std::isfinite(sim)) total += sim;
  }
  const double fit =
      considered == 0 ? 0.0 : total / static_cast<double>(considered);
  return std::isfinite(fit) ? fit : 0.0;
}

BatchLinkResult BatchLinker::LinkAll(
    const Dataset& dataset, const std::vector<EntityId>& targets) const {
  BatchLinkResult result;

  // Per-entity linkage, paper protocol. Entities are independent: each
  // strand reads the shared immutable dataset/models and writes only its
  // claimed slots of `linked`, so any interleaving produces the same slots.
  // The merge below runs serially in input order, making the whole result
  // identical at every thread width.
  struct PerTarget {
    bool linked = false;
    LinkResult link;
  };
  std::vector<PerTarget> linked(targets.size());
  const int width = ThreadPool::ResolveThreadCount(options_.threads);
  MAROON_GAUGE("maroon.batch.link_threads")->Set(width);
  const auto link_one = [&](size_t i) {
    auto target = dataset.target(targets[i]);
    if (!target.ok()) return;
    const EntityProfile& profile = (*target)->clean_profile;
    // CandidatesFor's bucket, without a second target lookup.
    const std::vector<RecordId>& ids = dataset.RecordsNamed(profile.name());
    std::vector<const TemporalRecord*> candidates;
    candidates.reserve(ids.size());
    for (RecordId rid : ids) candidates.push_back(&dataset.record(rid));
    linked[i].link = maroon_->Link(profile, candidates);
    linked[i].linked = true;
  };
  if (width <= 1) {
    for (size_t i = 0; i < targets.size(); ++i) link_one(i);
  } else {
    ThreadPool::Shared(width)->ParallelFor(
        targets.size(), width, [&](int /*strand*/, size_t i) {
          obs::PoolTaskScope task("pool.link_entity");
          link_one(i);
        });
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    if (!linked[i].linked) {
      ++result.skipped_entities;
      continue;
    }
    result.skipped_candidates += linked[i].link.skipped_candidates;
    result.per_entity[targets[i]] = std::move(linked[i].link);
  }

  // Collect claims.
  std::map<RecordId, std::vector<EntityId>> claims;
  for (const auto& [id, link] : result.per_entity) {
    for (RecordId rid : link.match.matched_records) {
      claims[rid].push_back(id);
    }
  }

  // Resolve.
  SimilarityCalculator similarity;
  for (const auto& [rid, claimants] : claims) {
    if (claimants.size() == 1) {
      result.assignment[rid] = claimants.front();
      continue;
    }
    ++result.contested_records;
    const TemporalRecord& record = dataset.record(rid);
    EntityId winner = claimants.front();
    double best_fit = -1.0;
    for (const EntityId& id : claimants) {
      const double fit = RecordProfileFit(
          result.per_entity[id].match.augmented_profile, record, similarity);
      if (fit > best_fit) {
        best_fit = fit;
        winner = id;
      }
    }
    result.assignment[rid] = winner;
    // Losers drop the record from their matched set.
    for (const EntityId& id : claimants) {
      if (id == winner) continue;
      auto& matched = result.per_entity[id].match.matched_records;
      matched.erase(std::remove(matched.begin(), matched.end(), rid),
                    matched.end());
    }
  }
  return result;
}

}  // namespace maroon
