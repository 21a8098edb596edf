#include "clustering/partition_clusterer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/dblp_generator.h"
#include "eval/experiment.h"

namespace maroon {
namespace {

TemporalRecord MakeRecord(RecordId id, TimePoint t,
                          std::initializer_list<std::pair<Attribute, ValueSet>>
                              values) {
  TemporalRecord r(id, "X", t, 0);
  for (const auto& [a, v] : values) r.SetValue(a, v);
  return r;
}

std::vector<const TemporalRecord*> Pointers(
    const std::vector<TemporalRecord>& records) {
  std::vector<const TemporalRecord*> out;
  for (const auto& r : records) out.push_back(&r);
  return out;
}

TEST(PartitionClustererTest, GroupsIdenticalStates) {
  SimilarityCalculator sim;
  ValueSetSimilarityMemo memo(sim);
  PartitionClusterer clusterer(PartitionOptions{0.8});
  std::vector<TemporalRecord> records;
  records.push_back(MakeRecord(0, 2001, {{"Title", MakeValueSet({"Engineer"})},
                                         {"Org", MakeValueSet({"S3"})}}));
  records.push_back(MakeRecord(1, 2002, {{"Title", MakeValueSet({"Engineer"})},
                                         {"Org", MakeValueSet({"S3"})}}));
  records.push_back(MakeRecord(2, 2008, {{"Title", MakeValueSet({"Director"})},
                                         {"Org", MakeValueSet({"Quest"})}}));
  const auto clusters = clusterer.ClusterRecords(Pointers(records), memo);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size(), 2u);
  EXPECT_EQ(clusters[1].size(), 1u);
}

TEST(PartitionClustererTest, SingleRecordSingleCluster) {
  SimilarityCalculator sim;
  ValueSetSimilarityMemo memo(sim);
  PartitionClusterer clusterer;
  std::vector<TemporalRecord> records;
  records.push_back(MakeRecord(0, 2001, {{"Title", MakeValueSet({"X"})}}));
  const auto clusters = clusterer.ClusterRecords(Pointers(records), memo);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].records(), (std::vector<RecordId>{0}));
}

TEST(PartitionClustererTest, EmptyInput) {
  SimilarityCalculator sim;
  ValueSetSimilarityMemo memo(sim);
  PartitionClusterer clusterer;
  EXPECT_TRUE(clusterer.ClusterRecords({}, memo).empty());
}

TEST(PartitionClustererTest, ThresholdControlsGranularity) {
  SimilarityCalculator sim;
  ValueSetSimilarityMemo memo(sim);
  std::vector<TemporalRecord> records;
  records.push_back(MakeRecord(0, 2000, {{"Title", MakeValueSet({"Engineer"})}}));
  records.push_back(MakeRecord(1, 2001, {{"Title", MakeValueSet({"Enginer"})}}));
  // Typo-similar titles merge at a loose threshold, split at a strict one.
  PartitionClusterer loose(PartitionOptions{0.85});
  PartitionClusterer strict(PartitionOptions{0.999});
  EXPECT_EQ(loose.ClusterRecords(Pointers(records), memo).size(), 1u);
  EXPECT_EQ(strict.ClusterRecords(Pointers(records), memo).size(), 2u);
}

TEST(PartitionClustererTest, ProcessesInTimestampOrder) {
  SimilarityCalculator sim;
  ValueSetSimilarityMemo memo(sim);
  PartitionClusterer clusterer(PartitionOptions{0.8});
  std::vector<TemporalRecord> records;
  // Presented out of order; the earliest record should seed the cluster and
  // the span should cover both.
  records.push_back(MakeRecord(0, 2009, {{"Title", MakeValueSet({"M"})}}));
  records.push_back(MakeRecord(1, 2001, {{"Title", MakeValueSet({"M"})}}));
  const auto clusters = clusterer.ClusterRecords(Pointers(records), memo);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].tmin(), 2001);
  EXPECT_EQ(clusters[0].tmax(), 2009);
}

TEST(PartitionClustererTest, DisjointAttributesDoNotMerge) {
  SimilarityCalculator sim;
  ValueSetSimilarityMemo memo(sim);
  PartitionClusterer clusterer(PartitionOptions{0.5});
  std::vector<TemporalRecord> records;
  records.push_back(MakeRecord(0, 2000, {{"Title", MakeValueSet({"A"})}}));
  records.push_back(
      MakeRecord(1, 2001, {{"Location", MakeValueSet({"Chicago"})}}));
  const auto clusters = clusterer.ClusterRecords(Pointers(records), memo);
  EXPECT_EQ(clusters.size(), 2u);
}

// PARTITION without the memo: every (record, majority state) comparison is
// scored from scratch with ValueSetSimilarity, the mean taken over the shared
// attributes in the record's attribute order. Returns each cluster's members.
std::vector<std::vector<RecordId>> ReferencePartition(
    const SimilarityCalculator& sim,
    std::vector<const TemporalRecord*> records, double threshold) {
  std::stable_sort(records.begin(), records.end(),
                   [](const TemporalRecord* a, const TemporalRecord* b) {
                     if (a->timestamp() != b->timestamp()) {
                       return a->timestamp() < b->timestamp();
                     }
                     return a->id() < b->id();
                   });
  std::vector<Cluster> clusters;
  for (const TemporalRecord* record : records) {
    double best_similarity = -1.0;
    size_t best_index = 0;
    for (size_t i = 0; i < clusters.size(); ++i) {
      const std::map<Attribute, ValueSet> state = clusters[i].MajorityState();
      double total = 0.0;
      size_t shared = 0;
      for (const auto& [attribute, values] : record->values()) {
        const auto it = state.find(attribute);
        if (it == state.end()) continue;
        total += sim.ValueSetSimilarity(values, it->second);
        ++shared;
      }
      const double similarity =
          shared == 0 ? 0.0 : total / static_cast<double>(shared);
      if (similarity > best_similarity) {
        best_similarity = similarity;
        best_index = i;
      }
    }
    if (best_similarity >= threshold && !clusters.empty()) {
      clusters[best_index].Add(*record);
    } else {
      Cluster fresh;
      fresh.Add(*record);
      clusters.push_back(std::move(fresh));
    }
  }
  std::vector<std::vector<RecordId>> members;
  for (const Cluster& c : clusters) members.push_back(c.records());
  return members;
}

TEST(PartitionClustererTest, MatchesUnmemoizedReferenceOnDblpNameBlock) {
  DblpOptions options;
  options.seed = 11;
  options.num_entities = 60;
  options.num_names = 10;
  const Dataset dataset = GenerateDblpCorpus(options).dataset;
  Experiment experiment(&dataset);
  experiment.Prepare();  // fits TF-IDF over every record's token bag

  const EntityId& entity = dataset.targets().begin()->first;
  std::vector<const TemporalRecord*> block;
  for (RecordId id : dataset.CandidatesFor(entity)) {
    block.push_back(&dataset.record(id));
  }
  ASSERT_GT(block.size(), 20u);

  // With the fitted model (TF-IDF cosine for coauthor lists) and without it
  // (best-pair Jaro-Winkler alignment).
  const SimilarityCalculator without_model;
  for (const SimilarityCalculator* sim :
       {&experiment.similarity(), &without_model}) {
    for (double threshold : {0.5, 0.8}) {
      ValueSetSimilarityMemo memo(*sim);
      const std::vector<Cluster> clusters =
          PartitionClusterer(PartitionOptions{threshold})
              .ClusterRecords(block, memo);
      std::vector<std::vector<RecordId>> members;
      for (const Cluster& c : clusters) members.push_back(c.records());
      EXPECT_EQ(members, ReferencePartition(*sim, block, threshold))
          << "threshold " << threshold << ", model "
          << (sim->tfidf_model() != nullptr);
      EXPECT_GT(memo.hits(), 0);
      EXPECT_GT(memo.misses(), 0);
    }
  }
}

}  // namespace
}  // namespace maroon
