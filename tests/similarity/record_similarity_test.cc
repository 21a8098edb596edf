#include "similarity/record_similarity.h"

#include <set>

#include <gtest/gtest.h>

#include "clustering/partition_clusterer.h"
#include "datagen/dblp_generator.h"
#include "datagen/recruitment_generator.h"
#include "eval/experiment.h"
#include "similarity/string_metrics.h"

namespace maroon {
namespace {

TEST(ValueSetTokensTest, FlattensAndLowercases) {
  EXPECT_EQ(ValueSetTokens(MakeValueSet({"Quest Software", "S3"})),
            (std::vector<std::string>{"quest", "software", "s3"}));
  EXPECT_TRUE(ValueSetTokens({}).empty());
}

TEST(SimilarityCalculatorTest, EmptySets) {
  SimilarityCalculator calc;
  EXPECT_DOUBLE_EQ(calc.ValueSetSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(calc.ValueSetSimilarity(MakeValueSet({"a"}), {}), 0.0);
  EXPECT_DOUBLE_EQ(calc.ValueSetSimilarity({}, MakeValueSet({"a"})), 0.0);
}

TEST(SimilarityCalculatorTest, SingletonsUseJaroWinkler) {
  SimilarityCalculator calc;
  EXPECT_DOUBLE_EQ(
      calc.ValueSetSimilarity(MakeValueSet({"Manager"}),
                              MakeValueSet({"Manager"})),
      1.0);
  const double similar = calc.ValueSetSimilarity(MakeValueSet({"Engineer"}),
                                                 MakeValueSet({"Enginer"}));
  EXPECT_GT(similar, 0.9);
  const double different = calc.ValueSetSimilarity(
      MakeValueSet({"Director"}), MakeValueSet({"Engineer"}));
  EXPECT_LT(different, 0.7);
}

TEST(SimilarityCalculatorTest, MultiValueWithoutTfIdfUsesBestPair) {
  SimilarityCalculator calc;
  const double sim = calc.ValueSetSimilarity(
      MakeValueSet({"S3", "XJek"}), MakeValueSet({"S3", "XJek"}));
  EXPECT_DOUBLE_EQ(sim, 1.0);
  const double partial = calc.ValueSetSimilarity(
      MakeValueSet({"S3", "XJek"}), MakeValueSet({"S3", "Aelita"}));
  EXPECT_GT(partial, 0.4);
  EXPECT_LT(partial, 1.0);
}

TEST(SimilarityCalculatorTest, TfIdfPathForSetValues) {
  TfIdfModel tfidf;
  tfidf.AddDocument({"s3", "xjek"});
  tfidf.AddDocument({"quest", "software"});
  tfidf.AddDocument({"aelita"});
  SimilarityCalculator calc;
  calc.SetTfIdfModel(&tfidf);
  EXPECT_NEAR(calc.ValueSetSimilarity(MakeValueSet({"S3", "XJek"}),
                                      MakeValueSet({"S3", "XJek"})),
              1.0, 1e-9);
  EXPECT_LT(calc.ValueSetSimilarity(MakeValueSet({"S3", "XJek"}),
                                    MakeValueSet({"Aelita", "Quest"})),
            0.2);
}

TemporalRecord MakeRecord(RecordId id,
                          std::initializer_list<std::pair<Attribute, ValueSet>>
                              values) {
  TemporalRecord r(id, "X", 2000, 0);
  for (const auto& [a, v] : values) r.SetValue(a, v);
  return r;
}

TEST(SimilarityCalculatorTest, RecordSimilarityAveragesSharedAttributes) {
  SimilarityCalculator calc;
  const TemporalRecord a = MakeRecord(
      0, {{"Title", MakeValueSet({"Engineer"})},
          {"Org", MakeValueSet({"S3"})}});
  const TemporalRecord b = MakeRecord(
      1, {{"Title", MakeValueSet({"Engineer"})},
          {"Org", MakeValueSet({"S3"})}});
  EXPECT_DOUBLE_EQ(calc.RecordSimilarity(a, b), 1.0);

  const TemporalRecord c =
      MakeRecord(2, {{"Title", MakeValueSet({"Engineer"})},
                     {"Location", MakeValueSet({"Chicago"})}});
  // Only Title shared; similarity is that attribute's alone.
  EXPECT_DOUBLE_EQ(calc.RecordSimilarity(a, c), 1.0);

  const TemporalRecord d =
      MakeRecord(3, {{"Location", MakeValueSet({"Chicago"})}});
  EXPECT_DOUBLE_EQ(calc.RecordSimilarity(a, d), 0.0);
}

TEST(ValueSetSimilarityMemoTest, MeanSimilarityOverSharedAttributes) {
  SimilarityCalculator calc;
  ValueSetSimilarityMemo memo(calc);
  const TemporalRecord r = MakeRecord(
      0, {{"Title", MakeValueSet({"Engineer"})},
          {"Org", MakeValueSet({"S3"})}});
  const auto state = memo.Intern(std::map<Attribute, ValueSet>{
      {"Title", MakeValueSet({"Engineer"})}, {"Org", MakeValueSet({"S3"})}});
  EXPECT_EQ(memo.MeanSimilarity(memo.Intern(r.values()), state), 1.0);

  // Attributes absent from the state are ignored: the comparison runs over
  // the shared attributes only (here just Title).
  const TemporalRecord with_extra = MakeRecord(
      1, {{"Title", MakeValueSet({"Engineer"})},
          {"Interests", MakeValueSet({"Technology"})}});
  EXPECT_EQ(memo.MeanSimilarity(memo.Intern(with_extra.values()), state),
            1.0);

  const TemporalRecord empty_record(2, "X", 2000, 0);
  EXPECT_EQ(memo.MeanSimilarity(memo.Intern(empty_record.values()), state),
            0.0);

  // A partial match averages the per-attribute scores in attribute order.
  const TemporalRecord typo = MakeRecord(
      3, {{"Title", MakeValueSet({"Enginer"})},
          {"Org", MakeValueSet({"S3"})}});
  const double org = calc.ValueSetSimilarity(MakeValueSet({"S3"}),
                                             MakeValueSet({"S3"}));
  const double title = calc.ValueSetSimilarity(MakeValueSet({"Enginer"}),
                                               MakeValueSet({"Engineer"}));
  EXPECT_EQ(memo.MeanSimilarity(memo.Intern(typo.values()), state),
            (org + title) / 2.0);
}

TEST(ValueSetSimilarityMemoTest, InternsEqualSetsToOneId) {
  SimilarityCalculator calc;
  ValueSetSimilarityMemo memo(calc);
  const auto a = memo.Intern(MakeValueSet({"x", "y"}));
  EXPECT_EQ(memo.Intern(MakeValueSet({"y", "x"})), a);
  EXPECT_NE(memo.Intern(MakeValueSet({"x"})), a);
  EXPECT_NE(memo.Intern(ValueSet{}), a);
  // Element boundaries are part of the identity.
  EXPECT_NE(memo.Intern(MakeValueSet({"ab", "c"})),
            memo.Intern(MakeValueSet({"a", "bc"})));
}

// Scores every ordered pair of `sets` through `memo` twice (misses, then
// hits) and checks each is exactly ValueSetSimilarity's.
void ExpectMemoEqualsCalculator(const SimilarityCalculator& calc,
                                const std::vector<ValueSet>& sets) {
  ValueSetSimilarityMemo memo(calc);
  for (int pass = 0; pass < 2; ++pass) {
    for (const ValueSet& a : sets) {
      for (const ValueSet& b : sets) {
        EXPECT_EQ(memo.Similarity(a, b), calc.ValueSetSimilarity(a, b))
            << ValueSetToString(a) << " vs " << ValueSetToString(b);
      }
    }
  }
  EXPECT_GT(memo.hits(), 0);
}

TEST(ValueSetSimilarityMemoTest, EqualsCalculatorOnEdgeCases) {
  const std::vector<ValueSet> sets = {
      {},                                         // empty
      MakeValueSet({"Engineer"}),                 // singletons
      MakeValueSet({"Enginer"}),
      MakeValueSet({"--"}),                       // no token
      MakeValueSet({"!!", "??"}),                 // multi-valued, no token
      MakeValueSet({"S3", "XJek"}),               // multi-valued
      MakeValueSet({"S3", "Aelita"}),
      MakeValueSet({"Quest Software", "S3", "Vertex Labs"}),
  };
  TfIdfModel tfidf;
  tfidf.AddDocument({"s3", "xjek"});
  tfidf.AddDocument({"quest", "software"});
  tfidf.AddDocument({"aelita"});
  SimilarityCalculator with_model;
  with_model.SetTfIdfModel(&tfidf);
  ExpectMemoEqualsCalculator(with_model, sets);
  ExpectMemoEqualsCalculator(SimilarityCalculator(), sets);

  // The spelled-out branches.
  ValueSetSimilarityMemo memo(with_model);
  EXPECT_EQ(memo.Similarity(ValueSet{}, ValueSet{}), 1.0);
  EXPECT_EQ(memo.Similarity(sets[5], ValueSet{}), 0.0);
  EXPECT_EQ(memo.Similarity(ValueSet{}, sets[5]), 0.0);
  EXPECT_EQ(memo.Similarity(sets[4], sets[4]), 1.0);  // two empty token bags
  EXPECT_EQ(memo.Similarity(sets[4], sets[5]), 0.0);  // one empty token bag
  EXPECT_EQ(memo.Similarity(sets[1], sets[2]),
            JaroWinklerSimilarity("Engineer", "Enginer"));
  // (a, b) and (b, a) are separate entries, each scored in its own order.
  EXPECT_EQ(memo.Similarity(sets[5], sets[6]),
            with_model.ValueSetSimilarity(sets[5], sets[6]));
  EXPECT_EQ(memo.Similarity(sets[6], sets[5]),
            with_model.ValueSetSimilarity(sets[6], sets[5]));
}

// Clusters one name block of `dataset` as Phase I does, with the TF-IDF
// model Experiment::Prepare fits over every record's token bag; every
// (record, majority state) value-set pair on a shared attribute must score
// exactly as without the memo. Returns how many of those pairs had a
// multi-valued side.
size_t ExpectMemoEqualsCalculatorOnNameBlock(const Dataset& dataset) {
  Experiment experiment(&dataset);
  experiment.Prepare();
  const SimilarityCalculator& calc = experiment.similarity();
  EXPECT_NE(calc.tfidf_model(), nullptr);

  const EntityId& entity = dataset.targets().begin()->first;
  std::vector<const TemporalRecord*> block;
  for (RecordId id : dataset.CandidatesFor(entity)) {
    block.push_back(&dataset.record(id));
  }
  EXPECT_GT(block.size(), 20u);
  ValueSetSimilarityMemo memo(calc);
  const std::vector<Cluster> clusters =
      PartitionClusterer().ClusterRecords(block, memo);
  EXPECT_GT(clusters.size(), 1u);

  size_t set_valued = 0;
  for (const TemporalRecord* r : block) {
    for (const Cluster& c : clusters) {
      for (const auto& [attribute, state] : c.MajorityState()) {
        if (!r->HasAttribute(attribute)) continue;
        const ValueSet& values = r->GetValue(attribute);
        if (values.size() > 1 || state.size() > 1) ++set_valued;
        EXPECT_EQ(memo.Similarity(values, state),
                  calc.ValueSetSimilarity(values, state));
        EXPECT_EQ(memo.Similarity(state, values),
                  calc.ValueSetSimilarity(state, values));
      }
    }
  }
  return set_valued;
}

TEST(ValueSetSimilarityMemoTest, EqualsCalculatorOnDblpNameBlock) {
  DblpOptions options;
  options.seed = 11;
  options.num_entities = 60;
  options.num_names = 10;
  EXPECT_GT(ExpectMemoEqualsCalculatorOnNameBlock(
                GenerateDblpCorpus(options).dataset),
            0u)
      << "the block never reached the TF-IDF path";
}

TEST(ValueSetSimilarityMemoTest, EqualsCalculatorOnRecruitmentNameBlock) {
  RecruitmentOptions options;
  options.seed = 11;
  options.num_entities = 60;
  options.num_names = 10;
  ExpectMemoEqualsCalculatorOnNameBlock(GenerateRecruitmentDataset(options));
}

TEST(ValueSetSimilarityMemoTest, PairTableGrowthKeepsScoresAndCounts) {
  // 48 distinct sets give 2,304 ordered pairs, so the pair table grows from
  // its initial size several times; the sets share tokens, so the TF-IDF
  // terms of different sets meet on shared ids.
  const std::vector<std::string> words = {"Quest", "Vertex", "Labs",
                                          "Software", "Springfield", "S3"};
  std::vector<ValueSet> sets;
  for (size_t i = 0; i < words.size(); ++i) {
    sets.push_back(MakeValueSet({words[i]}));
    sets.push_back(MakeValueSet({words[i] + " " + words[(i + 1) % 6]}));
    for (size_t j = i + 1; j < words.size(); ++j) {
      sets.push_back(MakeValueSet({words[i], words[j]}));
      sets.push_back(MakeValueSet({words[i], words[j], "Aelita"}));
    }
  }
  sets.push_back({});
  sets.push_back(MakeValueSet({"--", "!!"}));
  sets.push_back(MakeValueSet({"Quest Software", "Quest"}));
  sets.push_back(MakeValueSet({"XJek"}));
  sets.push_back(MakeValueSet({"Labs", "Labs Vertex", "quest"}));
  sets.push_back(MakeValueSet({"vertex labs"}));
  ASSERT_EQ(sets.size(), 48u);

  TfIdfModel tfidf;
  for (const ValueSet& set : sets) tfidf.AddDocument(ValueSetTokens(set));
  SimilarityCalculator calc;
  calc.SetTfIdfModel(&tfidf);

  // Look the pairs up in a scrambled order, each several times; a lookup
  // misses exactly when its ordered pair is new.
  ValueSetSimilarityMemo memo(calc);
  std::set<std::pair<size_t, size_t>> seen;
  int64_t expected_hits = 0;
  int64_t expected_misses = 0;
  const size_t n = sets.size();
  for (size_t step = 0; step < 3 * n * n; ++step) {
    const size_t a = (step * 7919) % n;
    const size_t b = (step * 104729 / n + step) % n;
    if (seen.insert({a, b}).second) {
      ++expected_misses;
    } else {
      ++expected_hits;
    }
    ASSERT_EQ(memo.Similarity(sets[a], sets[b]),
              calc.ValueSetSimilarity(sets[a], sets[b]))
        << ValueSetToString(sets[a]) << " vs " << ValueSetToString(sets[b]);
  }
  EXPECT_GT(seen.size(), n * n / 2);
  EXPECT_EQ(memo.misses(), expected_misses);
  EXPECT_EQ(memo.hits(), expected_hits);

  // Every pair, twice more: the first pass misses on the pairs not seen
  // yet, the second answers all of them from the table.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = 0; b < n; ++b) {
        if (seen.insert({a, b}).second) {
          ++expected_misses;
        } else {
          ++expected_hits;
        }
        ASSERT_EQ(memo.Similarity(sets[a], sets[b]),
                  calc.ValueSetSimilarity(sets[a], sets[b]));
      }
    }
  }
  EXPECT_EQ(memo.misses(), static_cast<int64_t>(n * n));
  EXPECT_EQ(memo.misses(), expected_misses);
  EXPECT_EQ(memo.hits(), expected_hits);
}

}  // namespace
}  // namespace maroon
