#include "transition/transition_model.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/thread_pool.h"

namespace maroon {
namespace {

const Attribute kTitle = "Title";

EntityProfile MakeTitleProfile(
    const std::string& id,
    std::initializer_list<std::tuple<TimePoint, TimePoint, Value>> spells) {
  EntityProfile p(id, id);
  TemporalSequence& seq = p.sequence(kTitle);
  for (const auto& [b, e, v] : spells) {
    EXPECT_TRUE(seq.Append(Triple(b, e, MakeValueSet({v}))).ok());
  }
  return p;
}

/// Figure 1's two profiles, reconstructed so that sliding a Δt=3 window
/// produces exactly the counts of Table 4: David contributes (E,M)=3 and
/// (M,M)=4; Tom contributes (E,A)=1, (E,M)=1, (A,M)=1.
ProfileSet Figure1Profiles() {
  ProfileSet profiles;
  profiles.push_back(MakeTitleProfile(
      "David", {{2000, 2002, "Engineer"}, {2003, 2009, "Manager"}}));
  profiles.push_back(MakeTitleProfile("Tom", {{2000, 2001, "Engineer"},
                                              {2002, 2003, "Analyst"},
                                              {2004, 2005, "Manager"}}));
  return profiles;
}

TEST(TransitionModelTest, AlgorithmOneReproducesTable4) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  const TransitionTable* t3 = model.table(kTitle, 3);
  ASSERT_NE(t3, nullptr);
  EXPECT_EQ(t3->Count("Engineer", "Manager"), 4);
  EXPECT_EQ(t3->Count("Manager", "Manager"), 4);
  EXPECT_EQ(t3->Count("Engineer", "Analyst"), 1);
  EXPECT_EQ(t3->Count("Analyst", "Manager"), 1);
  EXPECT_EQ(t3->Total(), 10);
}

TEST(TransitionModelTest, ExampleFourDeltaTransitions) {
  // Example 4: Φ_David[Title] at Δt = 3 exhibits exactly the transitions
  // (Engineer, Manager) and (Manager, Manager).
  ProfileSet david{MakeTitleProfile(
      "David", {{2000, 2002, "Engineer"}, {2003, 2009, "Manager"}})};
  const TransitionModel model = TransitionModel::Train(david, {kTitle});
  const TransitionTable* t3 = model.table(kTitle, 3);
  ASSERT_NE(t3, nullptr);
  EXPECT_EQ(t3->NumEntries(), 2u);
  EXPECT_GT(t3->Count("Engineer", "Manager"), 0);
  EXPECT_GT(t3->Count("Manager", "Manager"), 0);
}

TEST(TransitionModelTest, EquationOneConditionalProbabilities) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Engineer", "Manager", 3), 0.8);
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Engineer", "Analyst", 3), 0.2);
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Manager", "Manager", 3), 1.0);
}

TEST(TransitionModelTest, EquationTwoBoundaries) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  // Δt = 0 -> 1.0 by definition.
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Engineer", "Manager", 0), 1.0);
  // L = 10 (David's lifespan); Δt >= L clamps to L-1 = 9.
  EXPECT_EQ(model.MaxLifespan(kTitle), 10);
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Engineer", "Manager", 25),
                   model.Probability(kTitle, "Engineer", "Manager", 9));
}

TransitionModelOptions LiteralOptions() {
  // The paper's Eq. 3-8 without the sparse-table "rare" cap.
  TransitionModelOptions options;
  options.cap_unseen_by_support = false;
  return options;
}

TEST(TransitionModelTest, SmoothingCase1UnseenPairBothValuesKnown) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle}, LiteralOptions());
  // (Analyst, Analyst) at Δt=3: Analyst occurs as origin and as
  // destination, but the pair is unseen -> min row probability of Analyst.
  // Analyst's only outgoing transition is (Analyst, Manager) with prob 1.
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Analyst", "Analyst", 3), 1.0);
}

TEST(TransitionModelTest, SmoothingCase2UnseenDestination) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle}, LiteralOptions());
  // (Engineer, CEO): CEO never appears -> min row probability of Engineer.
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Engineer", "CEO", 3), 0.2);
}

TEST(TransitionModelTest, SupportCapBoundsUnseenTransitions) {
  // Default options: a singleton row (Analyst -> Manager only) would assign
  // probability 1.0 to the *unseen* (Analyst, Analyst); the support cap
  // bounds it by 1/(RowSum + 1) = 1/2. Dense evidence stays below its cap:
  // Engineer's row minimum 0.2 is capped by 1/(5+1).
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Analyst", "Analyst", 3), 0.5);
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Engineer", "CEO", 3),
                   1.0 / 6.0);
  // Seen transitions are never capped.
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Manager", "Manager", 3), 1.0);
}

TEST(TransitionModelTest, SmoothingCase3UnseenOrigin) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  // (CEO, Manager): prior of Manager = column sum / total = 9/10.
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "CEO", "Manager", 3), 0.9);
}

TEST(TransitionModelTest, SmoothingCase4Recurrence) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  // (CEO, CEO): both unseen, equal -> global recurrence 4/10.
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "CEO", "CEO", 3), 0.4);
}

TEST(TransitionModelTest, SmoothingCase4Change) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle}, LiteralOptions());
  // (CEO, VP): both unseen, different -> expected-change probability.
  EXPECT_NEAR(model.Probability(kTitle, "CEO", "VP", 3), 4.4 / 6.0, 1e-12);
  // With the default support cap the same query is bounded by
  // 1/(DiffTotal + 1) = 1/7.
  const TransitionModel capped =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  EXPECT_NEAR(capped.Probability(kTitle, "CEO", "VP", 3), 1.0 / 7.0, 1e-12);
}

TEST(TransitionModelTest, UntrainedAttributeGivesZero) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  EXPECT_DOUBLE_EQ(model.Probability("Location", "a", "b", 3), 0.0);
  EXPECT_FALSE(model.HasAttribute("Location"));
  EXPECT_EQ(model.MaxLifespan("Location"), 0);
  EXPECT_EQ(model.table("Location", 3), nullptr);
}

TEST(TransitionModelTest, DeltasCoverAllObservedGaps) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  const std::vector<int64_t> deltas = model.DeltasFor(kTitle);
  ASSERT_FALSE(deltas.empty());
  EXPECT_EQ(deltas.front(), 1);
  // David's lifespan 10 -> max Δt = 9.
  EXPECT_EQ(deltas.back(), 9);
}

TEST(TransitionModelTest, ValueFrequencyIsInstantWeighted) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  // Engineer: David 3 instants + Tom 2 instants.
  EXPECT_EQ(model.ValueFrequency(kTitle, "Engineer"), 5);
  EXPECT_EQ(model.ValueFrequency(kTitle, "Analyst"), 2);
  EXPECT_EQ(model.ValueFrequency(kTitle, "CEO"), 0);
}

TEST(TransitionModelTest, LowFrequencyValuesFallBackToCase4) {
  TransitionModelOptions options;
  options.min_value_frequency = 3;  // Analyst (2 instants) is "rare"
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle}, options);
  // (Engineer, Analyst) would be Eq. 1 = 0.2; with Analyst rare the pair is
  // treated as (seen, unseen) -> case 2 -> min row prob of Engineer = 0.2.
  // (Analyst, Manager) becomes (unseen, seen) -> case 3 prior = 0.9.
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Analyst", "Manager", 3), 0.9);
  // (Analyst, Analyst) -> both treated unseen, equal -> recurrence 0.4.
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Analyst", "Analyst", 3), 0.4);
}

TEST(TransitionModelTest, ValueMapperGeneralizesBeforeCounting) {
  TransitionModelOptions options;
  auto mapper = std::make_shared<TableValueMapper>();
  mapper->AddMapping(kTitle, "Engineer", "junior");
  mapper->AddMapping(kTitle, "Analyst", "junior");
  mapper->AddMapping(kTitle, "Manager", "senior");
  options.mapper = mapper;
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle}, options);
  const TransitionTable* t3 = model.table(kTitle, 3);
  ASSERT_NE(t3, nullptr);
  // Raw names are mapped at query time too.
  EXPECT_GT(model.Probability(kTitle, "Engineer", "Manager", 3), 0.0);
  EXPECT_DOUBLE_EQ(model.Probability(kTitle, "Engineer", "Manager", 3),
                   model.Probability(kTitle, "Analyst", "Manager", 3));
  EXPECT_TRUE(t3->HasOrigin("junior"));
  EXPECT_FALSE(t3->HasOrigin("Engineer"));
}

TEST(TransitionModelTest, SetProbabilityIsEquationTwelve) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  // Pr({Engineer}, {Analyst, Manager}, 3) = (0.2 + 0.8)/2.
  EXPECT_DOUBLE_EQ(
      model.SetProbability(kTitle, MakeValueSet({"Engineer"}),
                           MakeValueSet({"Analyst", "Manager"}), 3),
      0.5);
  // Max over the origin set: {Engineer, Manager} -> Manager: max(0.8, 1.0).
  EXPECT_DOUBLE_EQ(
      model.SetProbability(kTitle, MakeValueSet({"Engineer", "Manager"}),
                           MakeValueSet({"Manager"}), 3),
      1.0);
  EXPECT_DOUBLE_EQ(model.SetProbability(kTitle, {}, MakeValueSet({"x"}), 3),
                   0.0);
}

TEST(TransitionModelTest, IntervalProbabilityMatchesManualEquationThirteen) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  // I = [2003, 2004], I' = [2006, 2006]: pairs (2003,2006) Δ3, (2004,2006)
  // Δ2 — both forward. |I||I'| = 2.
  const double expected =
      (model.SetProbability(kTitle, MakeValueSet({"Manager"}),
                            MakeValueSet({"Manager"}), 3) +
       model.SetProbability(kTitle, MakeValueSet({"Manager"}),
                            MakeValueSet({"Manager"}), 2)) /
      2.0;
  EXPECT_NEAR(model.IntervalProbability(kTitle, MakeValueSet({"Manager"}),
                                        MakeValueSet({"Manager"}),
                                        Interval(2003, 2004),
                                        Interval(2006, 2006)),
              expected, 1e-12);
}

TEST(TransitionModelTest, IntervalProbabilityBackwardTerms) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  // I after I': only backward terms Pr(V', V, t - t') contribute.
  const double backward = model.IntervalProbability(
      kTitle, MakeValueSet({"Manager"}), MakeValueSet({"Engineer"}),
      Interval(2006, 2006), Interval(2003, 2003));
  EXPECT_NEAR(backward,
              model.SetProbability(kTitle, MakeValueSet({"Engineer"}),
                                   MakeValueSet({"Manager"}), 3),
              1e-12);
}

TEST(TransitionModelTest, ZeroDeltaTermsOptional) {
  // Literal Eq. 13 omits t == t' pairs; the option counts them as 1.
  TransitionModelOptions with_zero;
  with_zero.include_zero_delta_terms = true;
  const ProfileSet profiles = Figure1Profiles();
  const TransitionModel literal = TransitionModel::Train(profiles, {kTitle});
  const TransitionModel inclusive =
      TransitionModel::Train(profiles, {kTitle}, with_zero);
  const Interval same(2003, 2003);
  EXPECT_DOUBLE_EQ(
      literal.IntervalProbability(kTitle, MakeValueSet({"Manager"}),
                                  MakeValueSet({"Manager"}), same, same),
      0.0);
  EXPECT_DOUBLE_EQ(
      inclusive.IntervalProbability(kTitle, MakeValueSet({"Manager"}),
                                    MakeValueSet({"Manager"}), same, same),
      1.0);
}

TEST(TransitionModelTest, SequenceToStateProbabilityIsEquationFourteen) {
  const TransitionModel model =
      TransitionModel::Train(Figure1Profiles(), {kTitle});
  TemporalSequence history;
  ASSERT_TRUE(
      history.Append(Triple(2000, 2002, MakeValueSet({"Engineer"}))).ok());
  ASSERT_TRUE(
      history.Append(Triple(2003, 2009, MakeValueSet({"Manager"}))).ok());
  const ValueSet to = MakeValueSet({"Manager"});
  const Interval state(2011, 2011);
  const double expected =
      (model.IntervalProbability(kTitle, MakeValueSet({"Engineer"}), to,
                                 Interval(2000, 2002), state) +
       model.IntervalProbability(kTitle, MakeValueSet({"Manager"}), to,
                                 Interval(2003, 2009), state)) /
      2.0;
  EXPECT_NEAR(
      model.SequenceToStateProbability(kTitle, history, to, state),
      expected, 1e-12);
  EXPECT_DOUBLE_EQ(model.SequenceToStateProbability(kTitle, TemporalSequence(),
                                                    to, state),
                   0.0);
}

TEST(TransitionModelTest, PromotionMoreLikelyThanDemotionAfterYears) {
  // The discriminative behaviour behind Example 1: a long-time Manager is
  // far more likely to become Director than IT Contractor.
  ProfileSet profiles;
  for (int i = 0; i < 5; ++i) {
    profiles.push_back(MakeTitleProfile(
        "p" + std::to_string(i),
        {{2000, 2002, "Engineer"}, {2003, 2010, "Manager"},
         {2011, 2014, "Director"}}));
  }
  // Diversify the Manager row so the Eq. 3-4 minimum is informative.
  profiles.push_back(MakeTitleProfile(
      "r", {{2000, 2008, "Manager"}, {2009, 2014, "Consultant"}}));
  profiles.push_back(MakeTitleProfile(
      "q", {{2000, 2001, "IT Contractor"}, {2002, 2014, "Engineer"}}));
  const TransitionModel model = TransitionModel::Train(profiles, {kTitle});
  const double to_director =
      model.Probability(kTitle, "Manager", "Director", 8);
  const double to_contractor =
      model.Probability(kTitle, "Manager", "IT Contractor", 8);
  EXPECT_GT(to_director, to_contractor);
  EXPECT_GT(to_director, 0.2);
}

TEST(TransitionModelThreadsTest, ShardedTrainingMatchesSerialSerialization) {
  // The serialized model is a total, canonical rendering of the learnt
  // state; byte equality proves 1-thread and 8-thread training build
  // identical tables, frequencies, and lifespans.
  ProfileSet profiles = Figure1Profiles();
  profiles.push_back(MakeTitleProfile("Ann", {{2001, 2004, "Analyst"},
                                              {2005, 2008, "Director"}}));
  ThreadPool::SetDefaultThreadCount(1);
  const TransitionModel serial = TransitionModel::Train(profiles, {kTitle});
  ThreadPool::SetDefaultThreadCount(8);
  const TransitionModel sharded = TransitionModel::Train(profiles, {kTitle});
  ThreadPool::SetDefaultThreadCount(1);
  EXPECT_EQ(serial.Serialize(), sharded.Serialize());
}

}  // namespace
}  // namespace maroon
