#include "matching/maroon.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/paper_example.h"

namespace maroon {
namespace {

using testing::kInterests;
using testing::kLocation;
using testing::kOrg;
using testing::kTitle;

class MaroonEndToEndTest : public ::testing::Test {
 protected:
  MaroonEndToEndTest()
      : dataset_(testing::PaperRecords()),
        freshness_(testing::PaperFreshnessModel()),
        transition_(TransitionModel::Train(testing::CareerTrainingProfiles(),
                                           {kTitle})) {
    for (const TemporalRecord& r : dataset_.records()) {
      records_.push_back(&r);
    }
  }

  MaroonOptions Options() const {
    MaroonOptions o;
    o.matcher.theta = 0.01;
    o.matcher.single_valued_attributes = {kTitle, kLocation};
    return o;
  }

  Dataset dataset_;
  FreshnessModel freshness_;
  TransitionModel transition_;
  SimilarityCalculator similarity_;
  std::vector<const TemporalRecord*> records_;
};

TEST_F(MaroonEndToEndTest, DiscriminatesPromotionFromImplausibleChange) {
  // The headline behaviour of Example 1: r5 (Director) is linked, r6
  // (IT Contractor) is not, even though both share the organization.
  Maroon maroon(&transition_, &freshness_, &similarity_,
                testing::PaperAttributes(), Options());
  const LinkResult result =
      maroon.Link(testing::DavidBrownProfile(), records_);

  const auto& matched = result.match.matched_records;
  EXPECT_TRUE(std::binary_search(matched.begin(), matched.end(), RecordId{4}))
      << "r5 (Director) should be linked";
  EXPECT_FALSE(std::binary_search(matched.begin(), matched.end(), RecordId{5}))
      << "r6 (IT Contractor) should be rejected";
}

TEST_F(MaroonEndToEndTest, AugmentsProfileLikeTableThree) {
  Maroon maroon(&transition_, &freshness_, &similarity_,
                testing::PaperAttributes(), Options());
  const LinkResult result =
      maroon.Link(testing::DavidBrownProfile(), records_);
  const EntityProfile& augmented = result.match.augmented_profile;

  // Table 3: Director at Quest Software from 2011.
  EXPECT_EQ(augmented.sequence(kTitle).ValuesAt(2011),
            MakeValueSet({"Director"}));
  EXPECT_EQ(augmented.sequence(kOrg).ValuesAt(2011),
            MakeValueSet({"Quest Software"}));
  // The submitted history is preserved.
  EXPECT_EQ(augmented.sequence(kTitle).ValuesAt(2005),
            MakeValueSet({"Manager"}));
  EXPECT_EQ(augmented.sequence(kOrg).ValuesAt(2000),
            MakeValueSet({"S3", "XJek"}));
  // Post-processing leaves canonical sequences.
  for (const auto& [attr, seq] : augmented.sequences()) {
    EXPECT_TRUE(seq.IsCanonical()) << attr;
  }
}

TEST_F(MaroonEndToEndTest, ReportsPhaseTimingsAndClusterCount) {
  Maroon maroon(&transition_, &freshness_, &similarity_,
                testing::PaperAttributes(), Options());
  const LinkResult result =
      maroon.Link(testing::DavidBrownProfile(), records_);
  EXPECT_EQ(result.num_clusters, 6u);
  EXPECT_GE(result.timings.phase1_seconds, 0.0);
  EXPECT_GE(result.timings.phase2_seconds, 0.0);
  EXPECT_NEAR(result.timings.total_seconds(),
              result.timings.phase1_seconds + result.timings.phase2_seconds,
              1e-12);
}

TEST_F(MaroonEndToEndTest, HighThetaLinksNothing) {
  MaroonOptions options = Options();
  options.matcher.theta = 1e9;
  Maroon maroon(&transition_, &freshness_, &similarity_,
                testing::PaperAttributes(), options);
  const LinkResult result =
      maroon.Link(testing::DavidBrownProfile(), records_);
  EXPECT_TRUE(result.match.matched_records.empty());
}

TEST_F(MaroonEndToEndTest, EmptyCandidatesIsClean) {
  Maroon maroon(&transition_, &freshness_, &similarity_,
                testing::PaperAttributes(), Options());
  const LinkResult result = maroon.Link(testing::DavidBrownProfile(), {});
  EXPECT_TRUE(result.match.matched_records.empty());
  EXPECT_EQ(result.num_clusters, 0u);
  // The augmented profile equals the input.
  EXPECT_EQ(result.match.augmented_profile.sequence(kTitle).ValuesAt(2005),
            MakeValueSet({"Manager"}));
}

TEST_F(MaroonEndToEndTest, PhaseTimingsAccumulate) {
  PhaseTimings total;
  PhaseTimings a;
  a.phase1_seconds = 1.0;
  a.phase2_seconds = 2.0;
  total += a;
  total += a;
  EXPECT_DOUBLE_EQ(total.phase1_seconds, 2.0);
  EXPECT_DOUBLE_EQ(total.phase2_seconds, 4.0);
  EXPECT_DOUBLE_EQ(total.total_seconds(), 6.0);
}

TEST_F(MaroonEndToEndTest, ProfileGrowsAsRecordsArrive) {
  // The streaming use case of §1: re-linking a growing pool from the same
  // clean profile yields a more complete profile as records arrive.
  Maroon maroon(&transition_, &freshness_, &similarity_,
                testing::PaperAttributes(), Options());
  // The early records (r1-r4) arrive first.
  const std::vector<const TemporalRecord*> early(records_.begin(),
                                                 records_.begin() + 4);
  const LinkResult first = maroon.Link(testing::DavidBrownProfile(), early);
  EXPECT_GT(first.match.matched_records.size(), 0u);
  EXPECT_TRUE(
      first.match.augmented_profile.sequence(kTitle).ValuesAt(2011).empty());

  // The 2011+ records arrive (r1-r9); the Director promotion is now linked.
  ASSERT_EQ(records_.size(), 9u);
  const LinkResult second = maroon.Link(testing::DavidBrownProfile(), records_);
  EXPECT_GT(second.match.matched_records.size(),
            first.match.matched_records.size());
  EXPECT_EQ(second.match.augmented_profile.sequence(kTitle).ValuesAt(2011),
            MakeValueSet({"Director"}));
  // The decoy r6 (id 5) still does not link.
  EXPECT_FALSE(std::binary_search(second.match.matched_records.begin(),
                                  second.match.matched_records.end(),
                                  RecordId{5}));
}

TEST_F(MaroonEndToEndTest, OutOfOrderArrivalIsHandled) {
  // Candidate order carries no meaning: newest records first link the same.
  Maroon maroon(&transition_, &freshness_, &similarity_,
                testing::PaperAttributes(), Options());
  const std::vector<const TemporalRecord*> newest_first(records_.rbegin(),
                                                        records_.rend());
  const LinkResult result =
      maroon.Link(testing::DavidBrownProfile(), newest_first);
  EXPECT_FALSE(std::binary_search(result.match.matched_records.begin(),
                                  result.match.matched_records.end(),
                                  RecordId{5}));
  EXPECT_EQ(result.match.augmented_profile.sequence(kTitle).ValuesAt(2011),
            MakeValueSet({"Director"}));
}

}  // namespace
}  // namespace maroon
