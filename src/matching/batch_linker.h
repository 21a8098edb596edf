#ifndef MAROON_MATCHING_BATCH_LINKER_H_
#define MAROON_MATCHING_BATCH_LINKER_H_

#include <map>
#include <vector>

#include "core/dataset.h"
#include "matching/maroon.h"

namespace maroon {

/// Options for batch linking.
struct BatchLinkOptions {
  /// Worker threads for the per-entity linkage loop. <= 0 uses the process
  /// default (--threads / MAROON_THREADS, else 1). The result is identical
  /// at every width: entities link independently against the immutable
  /// dataset and models, per-entity results merge in input order, and claim
  /// collection plus conflict resolution stay serial.
  int threads = 0;
};

/// The outcome of linking many targets over a shared record pool.
struct BatchLinkResult {
  /// Per-entity linkage, after conflict resolution.
  std::map<EntityId, LinkResult> per_entity;
  /// Final record -> entity assignment (only records linked by someone).
  std::map<RecordId, EntityId> assignment;
  /// Records that more than one entity claimed before resolution.
  size_t contested_records = 0;
  /// Requested targets that are not registered in the dataset (skipped).
  size_t skipped_entities = 0;
  /// Degenerate candidates skipped across all entities (see LinkResult).
  size_t skipped_candidates = 0;
};

/// Links a set of target entities against a shared dataset — the deployment
/// shape of the paper's problem, where the 239 DBLP authors sharing 21 names
/// all compete for the same records. Per-entity linkage (the paper's
/// protocol) can claim one record for two entities; this driver resolves
/// such contests by how well each claimant's augmented profile explains the
/// record at its timestamp.
class BatchLinker {
 public:
  /// `maroon` must outlive the linker.
  explicit BatchLinker(const Maroon* maroon, BatchLinkOptions options = {})
      : maroon_(maroon), options_(options) {}

  /// Runs linkage for every entity in `targets` (candidates come from
  /// Dataset::CandidatesFor), then resolves contested records.
  [[nodiscard]] BatchLinkResult LinkAll(
      const Dataset& dataset, const std::vector<EntityId>& targets) const;

  /// How well `profile` explains `record`: mean over the record's attributes
  /// of the similarity between the record's values and the profile's values
  /// at the record's timestamp (falling back to the attribute's whole value
  /// universe when the timestamp is uncovered). Exposed for tests.
  [[nodiscard]] static double RecordProfileFit(
      const EntityProfile& profile, const TemporalRecord& record,
      const SimilarityCalculator& similarity);

 private:
  const Maroon* maroon_;
  BatchLinkOptions options_;
};

}  // namespace maroon

#endif  // MAROON_MATCHING_BATCH_LINKER_H_
