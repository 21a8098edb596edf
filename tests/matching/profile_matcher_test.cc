#include "matching/profile_matcher.h"

#include <gtest/gtest.h>

#include "testing/paper_example.h"

namespace maroon {
namespace {

using testing::kInterests;
using testing::kLocation;
using testing::kOrg;
using testing::kTitle;

GeneratedCluster MakeCluster(
    Interval interval,
    std::initializer_list<std::tuple<Attribute, ValueSet, double>> entries,
    std::initializer_list<RecordId> records = {}) {
  GeneratedCluster gc;
  gc.signature.interval = interval;
  for (const auto& [attr, values, conf] : entries) {
    gc.signature.values[attr] = values;
    gc.signature.confidence[attr] = conf;
  }
  for (RecordId id : records) {
    TemporalRecord r(id, "X", interval.begin, 0);
    for (const auto& [attr, values, conf] : entries) r.SetValue(attr, values);
    gc.cluster.Add(r);
  }
  return gc;
}

class ProfileMatcherTest : public ::testing::Test {
 protected:
  ProfileMatcherTest()
      : model_(TransitionModel::Train(testing::CareerTrainingProfiles(),
                                      {kTitle})) {}

  ProfileMatcherOptions Options(double theta = 0.01) const {
    ProfileMatcherOptions o;
    o.theta = theta;
    o.single_valued_attributes = {kTitle, kLocation};
    return o;
  }

  TransitionModel model_;
};

TEST_F(ProfileMatcherTest, MatchScoreFavorsLikelyTransitions) {
  const EntityProfile profile = testing::DavidBrownProfile();
  ProfileMatcher matcher(&model_, testing::PaperAttributes(), Options());

  const GeneratedCluster director = MakeCluster(
      Interval(2011, 2011), {{kTitle, MakeValueSet({"Director"}), 1.0}},
      {4});
  const GeneratedCluster contractor = MakeCluster(
      Interval(2011, 2011), {{kTitle, MakeValueSet({"IT Contractor"}), 1.0}},
      {5});
  const double s_director = matcher.MatchScore(profile, director);
  const double s_contractor = matcher.MatchScore(profile, contractor);
  EXPECT_GT(s_director, s_contractor);
  EXPECT_GT(s_director, 0.0);
}

TEST_F(ProfileMatcherTest, MatchScoreScalesWithConfidence) {
  const EntityProfile profile = testing::DavidBrownProfile();
  ProfileMatcher matcher(&model_, testing::PaperAttributes(), Options());
  const GeneratedCluster weak = MakeCluster(
      Interval(2011, 2011), {{kTitle, MakeValueSet({"Director"}), 0.5}});
  const GeneratedCluster strong = MakeCluster(
      Interval(2011, 2011), {{kTitle, MakeValueSet({"Director"}), 2.0}});
  EXPECT_NEAR(matcher.MatchScore(profile, strong),
              4.0 * matcher.MatchScore(profile, weak), 1e-9);
}

TEST_F(ProfileMatcherTest, MatchAndAugmentLinksAboveThreshold) {
  const EntityProfile profile = testing::DavidBrownProfile();
  ProfileMatcher matcher(&model_, testing::PaperAttributes(), Options());
  std::vector<GeneratedCluster> clusters;
  clusters.push_back(MakeCluster(Interval(2011, 2011),
                                 {{kTitle, MakeValueSet({"Director"}), 1.0}},
                                 {4}));
  const MatchResult result = matcher.MatchAndAugment(profile, clusters);
  EXPECT_EQ(result.matched_records, (std::vector<RecordId>{4}));
  EXPECT_EQ(result.linked_clusters, (std::vector<size_t>{0}));
  // The profile now records the Director state at 2011.
  EXPECT_EQ(result.augmented_profile.sequence(kTitle).ValuesAt(2011),
            MakeValueSet({"Director"}));
  // The original history is preserved.
  EXPECT_EQ(result.augmented_profile.sequence(kTitle).ValuesAt(2005),
            MakeValueSet({"Manager"}));
  EXPECT_TRUE(result.augmented_profile.sequence(kTitle).IsCanonical());
}

TEST_F(ProfileMatcherTest, ThetaGatesLinking) {
  const EntityProfile profile = testing::DavidBrownProfile();
  ProfileMatcher matcher(&model_, testing::PaperAttributes(),
                         Options(/*theta=*/1e6));
  std::vector<GeneratedCluster> clusters;
  clusters.push_back(MakeCluster(Interval(2011, 2011),
                                 {{kTitle, MakeValueSet({"Director"}), 1.0}},
                                 {4}));
  const MatchResult result = matcher.MatchAndAugment(profile, clusters);
  EXPECT_TRUE(result.matched_records.empty());
  EXPECT_TRUE(result.linked_clusters.empty());
  // Profile untouched (still ends at 2009).
  EXPECT_TRUE(result.augmented_profile.sequence(kTitle).ValuesAt(2011).empty());
}

TEST_F(ProfileMatcherTest, ConflictingClusterIsPruned) {
  const EntityProfile profile = testing::DavidBrownProfile();
  ProfileMatcher matcher(&model_, testing::PaperAttributes(), Options());
  std::vector<GeneratedCluster> clusters;
  // Example 8: once the Director cluster is linked, the IT Contractor
  // cluster conflicts on the single-valued Title at 2011 and is pruned.
  clusters.push_back(MakeCluster(Interval(2011, 2011),
                                 {{kTitle, MakeValueSet({"Director"}), 2.0}},
                                 {4}));
  clusters.push_back(MakeCluster(Interval(2011, 2011),
                                 {{kTitle, MakeValueSet({"IT Contractor"}), 1.0}},
                                 {5}));
  const MatchResult result = matcher.MatchAndAugment(profile, clusters);
  EXPECT_EQ(result.matched_records, (std::vector<RecordId>{4}));
  EXPECT_EQ(result.linked_clusters, (std::vector<size_t>{0}));
  EXPECT_EQ(result.pruned_clusters, (std::vector<size_t>{1}));
  EXPECT_EQ(result.augmented_profile.sequence(kTitle).ValuesAt(2011),
            MakeValueSet({"Director"}));
}

TEST_F(ProfileMatcherTest, NonConflictingClustersBothLink) {
  const EntityProfile profile = testing::DavidBrownProfile();
  ProfileMatcher matcher(&model_, testing::PaperAttributes(), Options());
  std::vector<GeneratedCluster> clusters;
  clusters.push_back(MakeCluster(Interval(2011, 2011),
                                 {{kTitle, MakeValueSet({"Director"}), 2.0}},
                                 {4}));
  // Disjoint period -> no conflict; President follows Director in training.
  clusters.push_back(MakeCluster(Interval(2013, 2013),
                                 {{kTitle, MakeValueSet({"President"}), 1.0}},
                                 {7}));
  const MatchResult result = matcher.MatchAndAugment(profile, clusters);
  EXPECT_EQ(result.linked_clusters.size(), 2u);
  EXPECT_TRUE(result.pruned_clusters.empty());
  EXPECT_EQ(result.augmented_profile.sequence(kTitle).ValuesAt(2013),
            MakeValueSet({"President"}));
}

TEST_F(ProfileMatcherTest, EmptyClusterSetIsNoOp) {
  const EntityProfile profile = testing::DavidBrownProfile();
  ProfileMatcher matcher(&model_, testing::PaperAttributes(), Options());
  const MatchResult result = matcher.MatchAndAugment(profile, {});
  EXPECT_TRUE(result.matched_records.empty());
  EXPECT_EQ(result.iterations, 0u);
}

TEST_F(ProfileMatcherTest, ZeroConfidenceClusterNeverLinks) {
  const EntityProfile profile = testing::DavidBrownProfile();
  ProfileMatcher matcher(&model_, testing::PaperAttributes(), Options());
  std::vector<GeneratedCluster> clusters;
  clusters.push_back(MakeCluster(Interval(2011, 2011),
                                 {{kTitle, MakeValueSet({"Director"}), 0.0}},
                                 {4}));
  const MatchResult result = matcher.MatchAndAugment(profile, clusters);
  EXPECT_TRUE(result.matched_records.empty());
}

}  // namespace
}  // namespace maroon
