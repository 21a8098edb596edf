#include <gtest/gtest.h>

#include "datagen/recruitment_generator.h"
#include "freshness/freshness_model.h"
#include "matching/maroon.h"
#include "testing/paper_example.h"
#include "transition/transition_model.h"

namespace maroon {
namespace {

using testing::kTitle;

TEST(TransitionPersistenceTest, RoundTripPreservesProbabilities) {
  const TransitionModel original = TransitionModel::Train(
      testing::CareerTrainingProfiles(), {kTitle});
  auto restored = TransitionModel::Deserialize(original.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ(restored->MaxLifespan(kTitle), original.MaxLifespan(kTitle));
  EXPECT_EQ(restored->DeltasFor(kTitle), original.DeltasFor(kTitle));
  // Spot-check seen, smoothed, and clamped probabilities.
  const std::vector<std::pair<Value, Value>> pairs = {
      {"Engineer", "Manager"}, {"Manager", "Director"},
      {"Manager", "IT Contractor"}, {"CEO", "VP"}, {"CEO", "CEO"}};
  for (const auto& [from, to] : pairs) {
    for (int64_t dt : {1, 3, 5, 8, 20}) {
      EXPECT_DOUBLE_EQ(restored->Probability(kTitle, from, to, dt),
                       original.Probability(kTitle, from, to, dt))
          << from << "->" << to << " dt=" << dt;
    }
  }
  EXPECT_EQ(restored->ValueFrequency(kTitle, "Manager"),
            original.ValueFrequency(kTitle, "Manager"));
}

TEST(TransitionPersistenceTest, OptionsAreRestored) {
  TransitionModelOptions options;
  options.min_value_frequency = 7;
  options.include_zero_delta_terms = true;
  options.cap_unseen_by_support = false;
  const TransitionModel original = TransitionModel::Train(
      testing::CareerTrainingProfiles(), {kTitle}, options);
  auto restored = TransitionModel::Deserialize(original.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->options().min_value_frequency, 7);
  EXPECT_TRUE(restored->options().include_zero_delta_terms);
  EXPECT_FALSE(restored->options().cap_unseen_by_support);
}

TEST(TransitionPersistenceTest, RejectsGarbage) {
  EXPECT_FALSE(TransitionModel::Deserialize("not a model").ok());
  EXPECT_FALSE(TransitionModel::Deserialize("").ok());
  EXPECT_FALSE(TransitionModel::Deserialize(
                   "format,maroon_transition_model_v1\nbogus,row\n")
                   .ok());
  EXPECT_FALSE(
      TransitionModel::Deserialize(
          "format,maroon_transition_model_v1\nentry,T,notanumber,a,b,1\n")
          .ok());
}

TEST(FreshnessPersistenceTest, RoundTripPreservesDelays) {
  const Dataset dataset = testing::PaperRecords();
  const FreshnessModel original =
      FreshnessModel::Train(dataset, {"david_1"});
  auto restored = FreshnessModel::Deserialize(original.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  for (SourceId s = 0; s < 3; ++s) {
    for (const Attribute& a : testing::PaperAttributes()) {
      for (int64_t eta : {0, 1, 2, 3, 10}) {
        EXPECT_DOUBLE_EQ(restored->Delay(eta, s, a), original.Delay(eta, s, a))
            << "s=" << s << " a=" << a << " eta=" << eta;
      }
      EXPECT_EQ(restored->ObservationCount(s, a),
                original.ObservationCount(s, a));
    }
  }
}

TEST(FreshnessPersistenceTest, SerializesVersionTwoDelayRowsOnly) {
  FreshnessModel original;
  for (int i = 0; i < 3; ++i) original.AddObservation(1, "T", 0);
  original.AddObservation(1, "T", 2);
  original.Finalize();
  EXPECT_EQ(original.Serialize(),
            "format,maroon_freshness_model_v2\n"
            "delay,1,T,0,3\n"
            "delay,1,T,2,1\n");
}

TEST(FreshnessPersistenceTest, RefusesVersionOneText) {
  // v1 carried option and epoch_delay rows that v2 has no meaning for;
  // refusing the whole text keeps a non-default option from being dropped
  // silently.
  for (const char* text :
       {"format,maroon_freshness_model_v1\n"
        "option,missing_data_is_fresh,0\n"
        "delay,0,T,0,4\n",
        "format,maroon_freshness_model_v1\n"
        "delay,0,T,0,4\n"
        "epoch_delay,0,T,200,0,4\n"}) {
    const auto restored = FreshnessModel::Deserialize(text);
    ASSERT_FALSE(restored.ok()) << text;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(FreshnessPersistenceTest, RejectsGarbage) {
  EXPECT_FALSE(FreshnessModel::Deserialize("junk").ok());
  EXPECT_FALSE(FreshnessModel::Deserialize(
                   "format,maroon_freshness_model_v2\ndelay,x,T,0,1\n")
                   .ok());
}

TEST(ModelPersistenceTest, RestoredModelsDriveIdenticalLinkage) {
  // The full pipeline produces identical results with restored models.
  RecruitmentOptions data_options;
  data_options.seed = 61;
  data_options.num_entities = 25;
  data_options.num_names = 10;
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

  auto transition2 = TransitionModel::Deserialize(transition.Serialize());
  auto freshness2 = FreshnessModel::Deserialize(freshness.Serialize());
  ASSERT_TRUE(transition2.ok());
  ASSERT_TRUE(freshness2.ok());

  SimilarityCalculator similarity;
  MaroonOptions options;
  options.matcher.single_valued_attributes = dataset.attributes();
  Maroon a(&transition, &freshness, &similarity, dataset.attributes(),
           options);
  Maroon b(&*transition2, &*freshness2, &similarity, dataset.attributes(),
           options);

  const EntityId& entity = ids.front();
  const auto target = dataset.target(entity);
  ASSERT_TRUE(target.ok()) << target.status();
  std::vector<const TemporalRecord*> candidates;
  for (RecordId rid : dataset.CandidatesFor(entity)) {
    candidates.push_back(&dataset.record(rid));
  }
  const LinkResult ra = a.Link((*target)->clean_profile, candidates);
  const LinkResult rb = b.Link((*target)->clean_profile, candidates);
  EXPECT_EQ(ra.match.matched_records, rb.match.matched_records);
  EXPECT_EQ(ra.match.augmented_profile.ToString(),
            rb.match.augmented_profile.ToString());
}

}  // namespace
}  // namespace maroon
