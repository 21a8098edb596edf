#include <gtest/gtest.h>

#include <map>
#include <set>

#include "datagen/recruitment_generator.h"
#include "freshness/freshness_model.h"
#include "matching/batch_linker.h"

namespace maroon {
namespace {

/// Invariants of exclusive batch linking over random corpora.
class BatchLinkerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchLinkerProperty, ExclusivityAndConsistencyHold) {
  RecruitmentOptions data_options;
  data_options.seed = GetParam();
  data_options.num_entities = 24;
  data_options.num_names = 8;
  const Dataset dataset = GenerateRecruitmentDataset(data_options);

  ProfileSet profiles;
  std::vector<EntityId> ids;
  for (const auto& [id, target] : dataset.targets()) {
    profiles.push_back(target.ground_truth);
    ids.push_back(id);
  }
  const TransitionModel transition =
      TransitionModel::Train(profiles, dataset.attributes());
  const FreshnessModel freshness = FreshnessModel::Train(dataset, ids);
  SimilarityCalculator similarity;
  MaroonOptions options;
  options.matcher.single_valued_attributes = dataset.attributes();
  Maroon maroon(&transition, &freshness, &similarity, dataset.attributes(),
                options);

  BatchLinker linker(&maroon);
  const BatchLinkResult result = linker.LinkAll(dataset, ids);

  // 1. Every assigned record is owned by exactly one entity, and ownership
  //    agrees with that entity's matched set.
  std::map<RecordId, EntityId> owners;
  for (const auto& [id, link] : result.per_entity) {
    for (RecordId rid : link.match.matched_records) {
      auto [it, inserted] = owners.emplace(rid, id);
      EXPECT_TRUE(inserted) << "record " << rid << " owned twice (seed "
                            << GetParam() << ")";
    }
  }
  EXPECT_EQ(owners.size(), result.assignment.size());
  for (const auto& [rid, id] : owners) {
    ASSERT_TRUE(result.assignment.count(rid) > 0);
    EXPECT_EQ(result.assignment.at(rid), id);
  }

  // 2. Assignments only go to entities whose candidate pool contains the
  //    record (same-name blocking respected).
  for (const auto& [rid, id] : result.assignment) {
    const auto candidates = dataset.CandidatesFor(id);
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), rid) !=
                candidates.end())
        << "record " << rid << " assigned outside its block (seed "
        << GetParam() << ")";
  }

  // 3. Exclusive resolution never *increases* an entity's matched set
  //    relative to per-entity linkage of the same target.
  for (const auto& [id, link] : result.per_entity) {
    std::vector<const TemporalRecord*> candidates;
    for (RecordId rid : dataset.CandidatesFor(id)) {
      candidates.push_back(&dataset.record(rid));
    }
    const LinkResult alone =
        maroon.Link(dataset.target(id).value()->clean_profile, candidates);
    const auto& before = alone.match.matched_records;
    const std::set<RecordId> before_set(before.begin(), before.end());
    for (RecordId rid : link.match.matched_records) {
      EXPECT_TRUE(before_set.count(rid) > 0)
          << "resolution invented a link (seed " << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, BatchLinkerProperty,
                         ::testing::Range<uint64_t>(300, 308));

}  // namespace
}  // namespace maroon
