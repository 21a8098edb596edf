#include "matching/batch_linker.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "datagen/recruitment_generator.h"
#include "eval/metrics.h"
#include "freshness/freshness_model.h"
#include "testing/paper_example.h"

namespace maroon {
namespace {

class BatchLinkerTest : public ::testing::Test {
 protected:
  BatchLinkerTest() {
    RecruitmentOptions options;
    options.seed = 53;
    options.num_entities = 30;
    options.num_names = 10;  // 3 entities per name -> contested records
    dataset_ = GenerateRecruitmentDataset(options);
    for (const auto& [id, target] : dataset_.targets()) {
      profiles_.push_back(target.ground_truth);
      ids_.push_back(id);
    }
    transition_ = TransitionModel::Train(profiles_, dataset_.attributes());
    freshness_ = FreshnessModel::Train(dataset_, ids_);
    MaroonOptions mo;
    mo.matcher.single_valued_attributes = dataset_.attributes();
    maroon_ = std::make_unique<Maroon>(&transition_, &freshness_,
                                       &similarity_, dataset_.attributes(),
                                       mo);
  }

  /// Per-entity linkage (the paper's protocol): each target links its own
  /// candidates with Maroon::Link, with no conflict resolution.
  std::map<EntityId, LinkResult> LinkEachAlone() const {
    std::map<EntityId, LinkResult> links;
    for (const EntityId& id : ids_) {
      std::vector<const TemporalRecord*> candidates;
      for (RecordId rid : dataset_.CandidatesFor(id)) {
        candidates.push_back(&dataset_.record(rid));
      }
      links[id] = maroon_->Link(
          dataset_.target(id).value()->clean_profile, candidates);
    }
    return links;
  }

  Dataset dataset_;
  ProfileSet profiles_;
  std::vector<EntityId> ids_;
  TransitionModel transition_;
  FreshnessModel freshness_;
  SimilarityCalculator similarity_;
  std::unique_ptr<Maroon> maroon_;
};

TEST_F(BatchLinkerTest, ExclusiveAssignmentIsExclusive) {
  BatchLinker linker(maroon_.get());
  const BatchLinkResult result = linker.LinkAll(dataset_, ids_);
  EXPECT_EQ(result.per_entity.size(), ids_.size());

  // After resolution, no record appears in two matched sets.
  std::map<RecordId, int> owners;
  for (const auto& [id, link] : result.per_entity) {
    for (RecordId rid : link.match.matched_records) ++owners[rid];
  }
  for (const auto& [rid, count] : owners) {
    EXPECT_EQ(count, 1) << "record " << rid << " owned by " << count;
  }
  // The assignment map agrees with the matched sets.
  for (const auto& [id, link] : result.per_entity) {
    for (RecordId rid : link.match.matched_records) {
      ASSERT_TRUE(result.assignment.count(rid) > 0);
      EXPECT_EQ(result.assignment.at(rid), id);
    }
  }
}

TEST_F(BatchLinkerTest, NonExclusiveKeepsAllClaims) {
  // Per-entity linkage keeps every claim; LinkAll counts each record that
  // several targets claim as contested and assigns it to one claimant.
  std::map<RecordId, std::set<EntityId>> claimants;
  for (const auto& [id, link] : LinkEachAlone()) {
    for (RecordId rid : link.match.matched_records) claimants[rid].insert(id);
  }
  size_t multi_owned = 0;
  for (const auto& [rid, owners] : claimants) multi_owned += owners.size() > 1;
  const BatchLinkResult result =
      BatchLinker(maroon_.get()).LinkAll(dataset_, ids_);
  // With 3 entities per name, some records are claimed more than once.
  EXPECT_EQ(multi_owned, result.contested_records);
  EXPECT_EQ(result.assignment.size(), claimants.size());
  for (const auto& [rid, owners] : claimants) {
    auto it = result.assignment.find(rid);
    ASSERT_NE(it, result.assignment.end()) << "record " << rid;
    EXPECT_TRUE(owners.count(it->second) > 0) << "record " << rid;
  }
}

TEST_F(BatchLinkerTest, ResolutionImprovesPrecision) {
  const std::map<EntityId, LinkResult> before = LinkEachAlone();
  const BatchLinkResult after =
      BatchLinker(maroon_.get()).LinkAll(dataset_, ids_);

  const auto mean_precision = [&](const std::map<EntityId, LinkResult>& r) {
    MeanAccumulator acc;
    for (const auto& [id, link] : r) {
      acc.Add(ComputePrecisionRecall(link.match.matched_records,
                                     dataset_.TrueMatchesOf(id))
                  .precision);
    }
    return acc.Mean();
  };
  EXPECT_GE(mean_precision(after.per_entity), mean_precision(before));
  EXPECT_GT(after.contested_records, 0u);
}

TEST_F(BatchLinkerTest, RecordProfileFitPrefersTheRightEntity) {
  const EntityProfile david = testing::DavidBrownProfile();
  EntityProfile other("other", "David Brown");
  (void)other.sequence(testing::kTitle)
      .Append(Triple(2000, 2009, MakeValueSet({"Astronaut"})));

  TemporalRecord r(0, "David Brown", 2004, 0);
  r.SetValue(testing::kTitle, MakeValueSet({"Manager"}));
  SimilarityCalculator sim;
  EXPECT_GT(BatchLinker::RecordProfileFit(david, r, sim),
            BatchLinker::RecordProfileFit(other, r, sim));
  // Empty record scores 0.
  const TemporalRecord empty(1, "X", 2004, 0);
  EXPECT_DOUBLE_EQ(BatchLinker::RecordProfileFit(david, empty, sim), 0.0);
}

TEST_F(BatchLinkerTest, UnknownTargetsAreSkipped) {
  BatchLinker linker(maroon_.get());
  const BatchLinkResult result = linker.LinkAll(dataset_, {"nobody"});
  EXPECT_TRUE(result.per_entity.empty());
  EXPECT_TRUE(result.assignment.empty());
}

}  // namespace
}  // namespace maroon
