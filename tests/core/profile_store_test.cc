#include "core/profile_store.h"

#include <gtest/gtest.h>

#include "testing/paper_example.h"

namespace maroon {
namespace {

using testing::kOrg;
using testing::kTitle;

EntityProfile SimpleProfile(const std::string& id, const std::string& name,
                            const std::string& org, TimePoint b, TimePoint e) {
  EntityProfile p(id, name);
  (void)p.sequence(kOrg).Append(Triple(b, e, MakeValueSet({org})));
  return p;
}

TEST(ProfileStoreTest, PutGetRemove) {
  ProfileStore store;
  EXPECT_TRUE(store.empty());
  store.Put(testing::DavidBrownProfile());
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.Get("david_1").ok());
  EXPECT_EQ((*store.Get("david_1"))->name(), "David Brown");
  EXPECT_FALSE(store.Get("nobody").ok());
  EXPECT_TRUE(store.Remove("david_1").ok());
  EXPECT_EQ(store.Remove("david_1").code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.empty());
}

TEST(ProfileStoreTest, PutReplacesAndReindexes) {
  ProfileStore store;
  store.Put(SimpleProfile("e1", "Alice", "Acme", 2000, 2005));
  EXPECT_EQ(store.FindByValueAt(kOrg, "Acme", 2003),
            (std::vector<EntityId>{"e1"}));
  // Replace with a different org; the old index entry must vanish.
  store.Put(SimpleProfile("e1", "Alice", "Beta", 2000, 2005));
  EXPECT_TRUE(store.FindByValueAt(kOrg, "Acme", 2003).empty());
  EXPECT_EQ(store.FindByValueAt(kOrg, "Beta", 2003),
            (std::vector<EntityId>{"e1"}));
}

TEST(ProfileStoreTest, FindByName) {
  ProfileStore store;
  store.Put(SimpleProfile("e1", "David Brown", "Acme", 2000, 2001));
  store.Put(SimpleProfile("e2", "David Brown", "Beta", 2000, 2001));
  store.Put(SimpleProfile("e3", "Maria Garcia", "Acme", 2000, 2001));
  EXPECT_EQ(store.FindByName("David Brown"),
            (std::vector<EntityId>{"e1", "e2"}));
  EXPECT_TRUE(store.FindByName("Nobody").empty());
  // A Put that renames an id moves it between buckets, keeping ids sorted.
  store.Put(SimpleProfile("e0", "David Brown", "Acme", 2000, 2001));
  store.Put(SimpleProfile("e2", "Maria Garcia", "Beta", 2000, 2001));
  EXPECT_EQ(store.FindByName("David Brown"),
            (std::vector<EntityId>{"e0", "e1"}));
  EXPECT_EQ(store.FindByName("Maria Garcia"),
            (std::vector<EntityId>{"e2", "e3"}));
  // Remove drops the id; the last one out empties the name.
  ASSERT_TRUE(store.Remove("e3").ok());
  EXPECT_EQ(store.FindByName("Maria Garcia"), (std::vector<EntityId>{"e2"}));
  ASSERT_TRUE(store.Remove("e2").ok());
  EXPECT_TRUE(store.FindByName("Maria Garcia").empty());
}

TEST(ProfileStoreTest, FindByValueAtRespectsIntervals) {
  ProfileStore store;
  store.Put(testing::DavidBrownProfile());
  // "a_twice" holds Aelita in two triples; it must still appear once.
  EntityProfile twice("a_twice", "Ann");
  (void)twice.sequence(kOrg).Append(
      Triple(2000, 2001, MakeValueSet({"Aelita"})));
  (void)twice.sequence(kOrg).Append(
      Triple(2004, 2005, MakeValueSet({"Aelita", "Beta"})));
  store.Put(twice);
  store.Put(SimpleProfile("z_other", "Zed", "Beta", 2000, 2009));
  EXPECT_EQ(store.FindByValueAt(kOrg, "Aelita", 2004),
            (std::vector<EntityId>{"a_twice", "david_1"}));
  EXPECT_EQ(store.FindByValueAt(kOrg, "Aelita", 2001),
            (std::vector<EntityId>{"a_twice"}));
  EXPECT_TRUE(store.FindByValueAt(kOrg, "Aelita", 2007).empty());
  EXPECT_EQ(store.FindByValue(kOrg, "Aelita"),
            (std::vector<EntityId>{"a_twice", "david_1"}));
  EXPECT_EQ(store.FindByValue(kOrg, "Beta"),
            (std::vector<EntityId>{"a_twice", "z_other"}));
  EXPECT_TRUE(store.FindByValue(kOrg, "WSO2").empty());
}

TEST(ProfileStoreTest, SnapshotAt) {
  ProfileStore store;
  store.Put(testing::DavidBrownProfile());
  auto snapshot = store.SnapshotAt("david_1", 2004);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->at(kOrg), MakeValueSet({"Aelita"}));
  EXPECT_EQ(snapshot->at(kTitle), MakeValueSet({"Manager"}));
  // Uncovered instant: empty snapshot.
  auto later = store.SnapshotAt("david_1", 2012);
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(later->empty());
  EXPECT_FALSE(store.SnapshotAt("nobody", 2004).ok());
}

TEST(ProfileStoreTest, CoOccurringColleagues) {
  ProfileStore store;
  store.Put(SimpleProfile("e1", "Alice", "Acme", 2000, 2005));
  store.Put(SimpleProfile("e2", "Bob", "Acme", 2003, 2008));
  store.Put(SimpleProfile("e3", "Cara", "Acme", 2007, 2009));
  store.Put(SimpleProfile("e4", "Dan", "Beta", 2000, 2009));
  // e5 and e6 sit at both Acme and Beta in 2004 only.
  for (const char* id : {"e5", "e6"}) {
    EntityProfile both(id, "Eve");
    (void)both.sequence(kOrg).Append(
        Triple(2004, 2004, MakeValueSet({"Acme", "Beta"})));
    store.Put(both);
  }
  // 2004: Alice, Bob, e5 and e6 overlap at Acme.
  EXPECT_EQ(store.CoOccurring("e1", kOrg, 2004),
            (std::vector<EntityId>{"e2", "e5", "e6"}));
  // 2007: Bob overlaps Cara, not Alice.
  EXPECT_EQ(store.CoOccurring("e2", kOrg, 2007),
            (std::vector<EntityId>{"e3"}));
  EXPECT_EQ(store.CoOccurring("e4", kOrg, 2004),
            (std::vector<EntityId>{"e5", "e6"}));
  // e6 shares both of e5's values but is listed once.
  EXPECT_EQ(store.CoOccurring("e5", kOrg, 2004),
            (std::vector<EntityId>{"e1", "e2", "e4", "e6"}));
  EXPECT_TRUE(store.CoOccurring("e4", kOrg, 2001).empty());
  EXPECT_TRUE(store.CoOccurring("nobody", kOrg, 2004).empty());
}

TEST(ProfileStoreTest, IdsSorted) {
  ProfileStore store;
  store.Put(SimpleProfile("z", "Z", "A", 2000, 2001));
  store.Put(SimpleProfile("a", "A", "A", 2000, 2001));
  EXPECT_EQ(store.Ids(), (std::vector<EntityId>{"a", "z"}));
}

}  // namespace
}  // namespace maroon
