#include "eval/metrics.h"

#include <gtest/gtest.h>

namespace maroon {
namespace {

TEST(PrecisionRecallTest, PerfectMatch) {
  const auto pr = ComputePrecisionRecall({1, 2, 3}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(pr.precision, 1.0);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
  EXPECT_DOUBLE_EQ(pr.F1(), 1.0);
  EXPECT_EQ(pr.true_positives, 3u);
}

TEST(PrecisionRecallTest, PartialOverlap) {
  // Result {1,2,3,4}, truth {3,4,5,6}: TP=2, P=0.5, R=0.5.
  const auto pr = ComputePrecisionRecall({1, 2, 3, 4}, {3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(pr.precision, 0.5);
  EXPECT_DOUBLE_EQ(pr.recall, 0.5);
  EXPECT_DOUBLE_EQ(pr.F1(), 0.5);
}

TEST(PrecisionRecallTest, EmptyConventions) {
  EXPECT_DOUBLE_EQ(ComputePrecisionRecall({}, {1, 2}).precision, 1.0);
  EXPECT_DOUBLE_EQ(ComputePrecisionRecall({}, {1, 2}).recall, 0.0);
  EXPECT_DOUBLE_EQ(ComputePrecisionRecall({1}, {}).recall, 1.0);
  EXPECT_DOUBLE_EQ(ComputePrecisionRecall({1}, {}).precision, 0.0);
}

TEST(PrecisionRecallTest, DeduplicatesInput) {
  const auto pr = ComputePrecisionRecall({1, 1, 2, 2}, {2, 2, 3});
  EXPECT_EQ(pr.result_size, 2u);
  EXPECT_EQ(pr.match_size, 2u);
  EXPECT_EQ(pr.true_positives, 1u);
}

TEST(PrecisionRecallTest, F1IsZeroWhenBothZero) {
  const auto pr = ComputePrecisionRecall({1}, {2});
  EXPECT_DOUBLE_EQ(pr.F1(), 0.0);
}

EntityProfile MakeProfile(
    std::initializer_list<std::tuple<Attribute, TimePoint, TimePoint, Value>>
        spans) {
  EntityProfile p("e", "E");
  for (const auto& [attr, b, e, v] : spans) {
    EXPECT_TRUE(p.sequence(attr).Insert(Triple(b, e, MakeValueSet({v}))).ok());
  }
  p.Normalize();
  return p;
}

TEST(ProfileQualityTest, IdenticalProfiles) {
  const EntityProfile p = MakeProfile({{"T", 2000, 2004, "Engineer"}});
  const auto q = CompareProfiles(p, p, {"T"});
  EXPECT_DOUBLE_EQ(q.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(q.completeness, 1.0);
  EXPECT_EQ(q.truth_facts, 5u);
}

TEST(ProfileQualityTest, PartialCoverage) {
  const EntityProfile truth = MakeProfile({{"T", 2000, 2009, "Engineer"}});
  const EntityProfile result = MakeProfile({{"T", 2000, 2004, "Engineer"}});
  const auto q = CompareProfiles(result, truth, {"T"});
  EXPECT_DOUBLE_EQ(q.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(q.completeness, 0.5);
}

TEST(ProfileQualityTest, WrongFactsHurtAccuracy) {
  const EntityProfile truth = MakeProfile({{"T", 2000, 2004, "Engineer"}});
  const EntityProfile result = MakeProfile(
      {{"T", 2000, 2004, "Engineer"}, {"T", 2005, 2009, "Astronaut"}});
  const auto q = CompareProfiles(result, truth, {"T"});
  EXPECT_DOUBLE_EQ(q.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(q.completeness, 1.0);
}

TEST(ProfileQualityTest, OnlySchemaAttributesCount) {
  const EntityProfile truth = MakeProfile({{"T", 2000, 2001, "a"}});
  const EntityProfile result = MakeProfile(
      {{"T", 2000, 2001, "a"}, {"Other", 2000, 2005, "junk"}});
  const auto q = CompareProfiles(result, truth, {"T"});
  EXPECT_DOUBLE_EQ(q.accuracy, 1.0);
}

TEST(ProfileQualityTest, MultiValuedFactsAreCountedPerValue) {
  EntityProfile truth("e", "E");
  (void)truth.sequence("O").Append(
      Triple(2000, 2000, MakeValueSet({"S3", "XJek"})));
  EntityProfile result("e", "E");
  (void)result.sequence("O").Append(Triple(2000, 2000, MakeValueSet({"S3"})));
  const auto q = CompareProfiles(result, truth, {"O"});
  EXPECT_DOUBLE_EQ(q.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(q.completeness, 0.5);
}

TEST(ProfileQualityTest, EmptyProfiles) {
  const EntityProfile empty("e", "E");
  const EntityProfile truth = MakeProfile({{"T", 2000, 2001, "a"}});
  const auto q = CompareProfiles(empty, truth, {"T"});
  EXPECT_DOUBLE_EQ(q.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(q.completeness, 0.0);
}

TEST(MeanAccumulatorTest, Averages) {
  MeanAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.Mean(), 0.0);
  acc.Add(1.0);
  acc.Add(2.0);
  acc.Add(3.0);
  EXPECT_DOUBLE_EQ(acc.Mean(), 2.0);
  EXPECT_EQ(acc.count(), 3u);
}

}  // namespace
}  // namespace maroon
