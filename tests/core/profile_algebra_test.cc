#include "core/profile_algebra.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "testing/paper_example.h"

namespace maroon {
namespace {

using testing::kOrg;
using testing::kTitle;

TEST(EnumerateProfileFactsTest, SortedAndComplete) {
  EntityProfile profile("e", "E");
  (void)profile.sequence(kTitle).Append(
      Triple(2000, 2001, MakeValueSet({"Engineer"})));
  const auto facts = EnumerateProfileFacts(profile);
  ASSERT_EQ(facts.size(), 2u);
  EXPECT_EQ(facts[0], (ProfileFact{kTitle, 2000, "Engineer"}));
  EXPECT_EQ(facts[1], (ProfileFact{kTitle, 2001, "Engineer"}));
}

TEST(EnumerateProfileFactsTest, MultiValueFactsPerValue) {
  EntityProfile profile("e", "E");
  (void)profile.sequence(kOrg).Append(
      Triple(2000, 2000, MakeValueSet({"S3", "XJek"})));
  EXPECT_EQ(EnumerateProfileFacts(profile).size(), 2u);
}

TEST(DiffProfilesTest, DetectsAddedAndRemovedFacts) {
  EntityProfile before("e", "E");
  (void)before.sequence(kTitle).Append(
      Triple(2000, 2001, MakeValueSet({"Engineer"})));
  EntityProfile after("e", "E");
  (void)after.sequence(kTitle).Append(
      Triple(2001, 2002, MakeValueSet({"Engineer"})));

  const ProfileDiff diff = DiffProfiles(before, after);
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0], (ProfileFact{kTitle, 2002, "Engineer"}));
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0], (ProfileFact{kTitle, 2000, "Engineer"}));
}

TEST(DiffProfilesTest, IdenticalProfilesDiffEmpty) {
  const EntityProfile p = testing::DavidBrownProfile();
  EXPECT_TRUE(DiffProfiles(p, p).empty());
}

TEST(RenderTimelineTest, ShowsAttributesAndSpan) {
  const EntityProfile p = testing::DavidBrownProfile();
  const std::string timeline = RenderTimeline(p);
  EXPECT_NE(timeline.find("David Brown"), std::string::npos);
  EXPECT_NE(timeline.find("2000-2009"), std::string::npos);
  EXPECT_NE(timeline.find("Title"), std::string::npos);
  EXPECT_NE(timeline.find("Organization"), std::string::npos);
  // The Title row shows the Engineer state starting.
  EXPECT_NE(timeline.find('E'), std::string::npos);
}

TEST(RenderTimelineTest, EmptyProfile) {
  EXPECT_EQ(RenderTimeline(EntityProfile("e", "E")), "(empty profile)\n");
}

TEST(RenderTimelineTest, WideSpansCompress) {
  EntityProfile p("e", "E");
  (void)p.sequence(kTitle).Append(
      Triple(1000, 2000, MakeValueSet({"Engineer"})));
  const std::string timeline = RenderTimeline(p, /*max_width=*/50);
  // Every line stays within label + width + decorations.
  for (const std::string& line : Split(timeline, '\n')) {
    EXPECT_LE(line.size(), 70u);
  }
}

}  // namespace
}  // namespace maroon
