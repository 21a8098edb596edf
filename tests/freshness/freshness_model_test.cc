#include "freshness/freshness_model.h"

#include <gtest/gtest.h>

#include "testing/paper_example.h"

namespace maroon {
namespace {

using testing::DavidBrownProfile;
using testing::kInterests;
using testing::kLocation;
using testing::kOrg;
using testing::kTitle;

TEST(ComputeDelayTest, ExampleSixDelayIsTwo) {
  // r3's Title "Engineer" published 2004; David last held it in 2002.
  const EntityProfile david = DavidBrownProfile();
  auto delay = ComputeDelay(david.sequence(kTitle), "Engineer", 2004);
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(*delay, 2);
}

TEST(ComputeDelayTest, ZeroWhenTimestampInsideInterval) {
  const EntityProfile david = DavidBrownProfile();
  auto delay = ComputeDelay(david.sequence(kTitle), "Engineer", 2001);
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(*delay, 0);
  delay = ComputeDelay(david.sequence(kTitle), "Manager", 2009);
  EXPECT_EQ(*delay, 0);
}

TEST(ComputeDelayTest, UndefinedForUnknownOrFutureValues) {
  const EntityProfile david = DavidBrownProfile();
  // Never in the profile.
  EXPECT_FALSE(
      ComputeDelay(david.sequence(kTitle), "Director", 2011).has_value());
  // Manager starts 2003; published 2001 — value only occurs later.
  EXPECT_FALSE(
      ComputeDelay(david.sequence(kTitle), "Manager", 2001).has_value());
}

TEST(ComputeDelayTest, LongDelays) {
  const EntityProfile david = DavidBrownProfile();
  // r7: Title "Engineer" published 2012; last held 2002 -> delay 10.
  auto delay = ComputeDelay(david.sequence(kTitle), "Engineer", 2012);
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(*delay, 10);
}

TEST(FreshnessModelTest, DistributionNormalizes) {
  FreshnessModel model;
  model.AddObservation(0, "Title", 0);
  model.AddObservation(0, "Title", 0);
  model.AddObservation(0, "Title", 0);
  model.AddObservation(0, "Title", 2);
  model.Finalize();
  EXPECT_DOUBLE_EQ(model.Delay(0, 0, "Title"), 0.75);
  EXPECT_DOUBLE_EQ(model.Delay(2, 0, "Title"), 0.25);
  EXPECT_DOUBLE_EQ(model.Delay(1, 0, "Title"), 0.0);
  EXPECT_EQ(model.ObservationCount(0, "Title"), 4);
}

TEST(FreshnessModelTest, MissingDataDefaultsToFresh) {
  FreshnessModel fresh_default;
  fresh_default.Finalize();
  EXPECT_DOUBLE_EQ(fresh_default.Delay(0, 9, "Title"), 1.0);
  EXPECT_DOUBLE_EQ(fresh_default.Delay(3, 9, "Title"), 0.0);
}

TEST(FreshnessModelTest, IsFreshRequiresEveryAttribute) {
  FreshnessModel model = testing::PaperFreshnessModel();
  const std::vector<Attribute> attrs = testing::PaperAttributes();
  // Google+ (0) and Twitter (2): fresh at µ = 0.9.
  EXPECT_TRUE(model.IsFresh(0, attrs, 0.9));
  EXPECT_TRUE(model.IsFresh(2, attrs, 0.9));
  // Facebook (1): stale on Organization/Title.
  EXPECT_FALSE(model.IsFresh(1, attrs, 0.9));
  // Facebook is fresh when only Location/Interests matter.
  EXPECT_TRUE(model.IsFresh(1, {kLocation, kInterests}, 0.9));
}

TEST(FreshnessModelTest, FreshnessScoreAverages) {
  FreshnessModel model = testing::PaperFreshnessModel();
  const std::vector<Attribute> attrs = testing::PaperAttributes();
  EXPECT_NEAR(model.FreshnessScore(0, attrs), 0.95, 1e-9);
  // Facebook: (0.3 + 0.3 + 0.95 + 0.95)/4.
  EXPECT_NEAR(model.FreshnessScore(1, attrs), 0.625, 1e-9);
  EXPECT_DOUBLE_EQ(model.FreshnessScore(0, {}), 0.0);
}

TEST(FreshnessModelTest, TrainFromDatasetLearnsFacebookStaleness) {
  const Dataset dataset = testing::PaperRecords();
  FreshnessModel model =
      FreshnessModel::Train(dataset, {"david_1"});
  // r3 (Facebook 2004): Title Engineer delay 2, Organization S3/XJek delays.
  // r7 (Facebook 2012): Title Engineer delay 10.
  EXPECT_GT(model.ObservationCount(1, kTitle), 0);
  EXPECT_LT(model.Delay(0, 1, kTitle), 0.9);
  EXPECT_GT(model.Delay(2, 1, kTitle), 0.0);
  EXPECT_GT(model.Delay(10, 1, kTitle), 0.0);
  // Google+ r1/r2 publish current values -> delay 0 mass.
  EXPECT_GT(model.Delay(0, 0, kTitle), 0.9);
}

TEST(FreshnessModelTest, TrainSkipsNonTrainingEntities) {
  const Dataset dataset = testing::PaperRecords();
  FreshnessModel model = FreshnessModel::Train(dataset, {"someone_else"});
  EXPECT_EQ(model.ObservationCount(0, kTitle), 0);
  EXPECT_EQ(model.ObservationCount(1, kTitle), 0);
}

TEST(FreshnessModelTest, ValuesAbsentFromProfileAreSkipped) {
  // r5's Title "Director" is not in the clean profile -> no delay defined.
  const Dataset dataset = testing::PaperRecords();
  FreshnessModel model = FreshnessModel::Train(dataset, {"david_1"});
  // Organization observations exist only from records whose values appear in
  // the ground-truth profile (S3/XJek); WSO2 (r8/r9) contributes nothing.
  EXPECT_GT(model.ObservationCount(0, kOrg), 0);
}

}  // namespace
}  // namespace maroon
