#include "matching/cluster_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>

#include "datagen/recruitment_generator.h"
#include "eval/experiment.h"
#include "matching/batch_linker.h"
#include "matching/maroon.h"
#include "obs/metrics.h"
#include "testing/paper_example.h"

namespace maroon {
namespace {

using testing::kInterests;
using testing::kLocation;
using testing::kOrg;
using testing::kTitle;

class ClusterGeneratorExampleTest : public ::testing::Test {
 protected:
  ClusterGeneratorExampleTest()
      : dataset_(testing::PaperRecords()),
        freshness_(testing::PaperFreshnessModel()) {
    for (const TemporalRecord& r : dataset_.records()) {
      records_.push_back(&r);
    }
  }

  std::vector<GeneratedCluster> Generate(ClusterGeneratorOptions options = {}) {
    ClusterGenerator generator(&similarity_, &freshness_,
                               testing::PaperAttributes(), options);
    return generator.Generate(records_);
  }

  /// Index of the cluster containing record `id` on any attribute.
  static std::vector<size_t> ClustersContaining(
      const std::vector<GeneratedCluster>& clusters, RecordId id) {
    std::vector<size_t> out;
    for (size_t i = 0; i < clusters.size(); ++i) {
      if (clusters[i].cluster.Contains(id)) out.push_back(i);
    }
    return out;
  }

  Dataset dataset_;
  FreshnessModel freshness_;
  SimilarityCalculator similarity_;
  std::vector<const TemporalRecord*> records_;
};

TEST_F(ClusterGeneratorExampleTest, ReproducesExampleSevenClusters) {
  // Record ids: r1..r9 -> 0..8.
  const auto clusters = Generate();
  ASSERT_EQ(clusters.size(), 6u);

  // c1 = {r1, r2, r3, r7} (Table 5).
  const auto& c1 = clusters[0];
  std::vector<RecordId> c1_members = c1.cluster.records();
  std::sort(c1_members.begin(), c1_members.end());
  EXPECT_EQ(c1_members, (std::vector<RecordId>{0, 1, 2, 6}));
  EXPECT_EQ(c1.signature.interval, Interval(2001, 2002));
  EXPECT_EQ(c1.signature.ValuesOf(kOrg), MakeValueSet({"S3", "XJek"}));
  EXPECT_EQ(c1.signature.ValuesOf(kTitle), MakeValueSet({"Engineer"}));
  // r7 joined c1 on Title only, so its fresh Location must not leak into c1.
  EXPECT_TRUE(c1.signature.ValuesOf(kLocation).empty());

  // c2 = {r4}, c3 = {r5}, c4 = {r6}, c5 = {r8, r9}.
  EXPECT_EQ(clusters[1].cluster.records(), (std::vector<RecordId>{3}));
  EXPECT_EQ(clusters[2].cluster.records(), (std::vector<RecordId>{4}));
  EXPECT_EQ(clusters[2].signature.ValuesOf(kTitle),
            MakeValueSet({"Director"}));
  EXPECT_EQ(clusters[3].cluster.records(), (std::vector<RecordId>{5}));
  EXPECT_EQ(clusters[3].signature.ValuesOf(kTitle),
            MakeValueSet({"IT Contractor"}));
  std::vector<RecordId> c5_members = clusters[4].cluster.records();
  std::sort(c5_members.begin(), c5_members.end());
  EXPECT_EQ(c5_members, (std::vector<RecordId>{7, 8}));

  // c6 = {r7}'s fresh attributes (Location, Interests) at 2012.
  const auto& c6 = clusters[5];
  EXPECT_EQ(c6.cluster.records(), (std::vector<RecordId>{6}));
  EXPECT_EQ(c6.signature.interval, Interval(2012, 2012));
  EXPECT_EQ(c6.signature.ValuesOf(kLocation), MakeValueSet({"Chicago"}));
  EXPECT_EQ(c6.signature.ValuesOf(kInterests),
            MakeValueSet({"Politics", "Sports"}));
  EXPECT_TRUE(c6.signature.ValuesOf(kTitle).empty());
}

TEST_F(ClusterGeneratorExampleTest, StaleRecordMayLandInMultipleClusters) {
  const auto clusters = Generate();
  // r7 (id 6): Title into c1, Location+Interests into c6.
  EXPECT_EQ(ClustersContaining(clusters, 6),
            (std::vector<size_t>{0, 5}));
  // r3 (id 2): fully absorbed by c1, no new cluster.
  EXPECT_EQ(ClustersContaining(clusters, 2), (std::vector<size_t>{0}));
}

TEST_F(ClusterGeneratorExampleTest, ConfidenceRewardsMultipleFreshSources) {
  const auto clusters = Generate();
  // c1's Title is supported by Google+ (fresh, ~0.95 each) and Facebook
  // (delayed, ~0.3/0.4): conf = 0.95 + (0.3 + 0.4)/2 = 1.3.
  EXPECT_NEAR(clusters[0].signature.ConfidenceOf(kTitle), 1.3, 1e-9);
  EXPECT_NEAR(clusters[0].signature.ConfidenceOf(kOrg), 1.3, 1e-9);
  // c3 = {r5} single fresh source: conf = 0.95.
  EXPECT_NEAR(clusters[2].signature.ConfidenceOf(kTitle), 0.95, 1e-9);
  // c5 = {r8 (Twitter), r9 (Google+)}: two fresh sources on Title.
  EXPECT_NEAR(clusters[4].signature.ConfidenceOf(kTitle), 1.9, 1e-9);
}

TEST_F(ClusterGeneratorExampleTest, IgnoreFreshnessDegeneratesToPartition) {
  ClusterGeneratorOptions options;
  options.use_source_freshness = false;
  const auto clusters = Generate(options);
  // Every record is treated as fresh; the stale r3/r7 now cluster by plain
  // similarity. r3 matches c1's state outright, and r7's interval stretches
  // the cluster it lands in (the exact failure mode Phase I avoids).
  for (const auto& gc : clusters) {
    for (const Attribute& a : testing::PaperAttributes()) {
      if (!gc.signature.ValuesOf(a).empty()) {
        // Confidence counts sources (delay probability 1 each).
        EXPECT_GE(gc.signature.ConfidenceOf(a), 1.0);
      }
    }
  }
}

TEST_F(ClusterGeneratorExampleTest, EmptyInputYieldsNoClusters) {
  ClusterGenerator generator(&similarity_, &freshness_,
                             testing::PaperAttributes(), {});
  EXPECT_TRUE(generator.Generate({}).empty());
}

TEST_F(ClusterGeneratorExampleTest, HigherMuPrimeBlocksStalePlacement) {
  ClusterGeneratorOptions options;
  options.mu_prime = 0.99;  // no delay distribution exceeds this
  const auto clusters = Generate(options);
  // r3 and r7 cannot join any cluster; each seeds its own.
  const auto r3_clusters = ClustersContaining(clusters, 2);
  ASSERT_EQ(r3_clusters.size(), 1u);
  EXPECT_EQ(clusters[r3_clusters[0]].cluster.size(), 1u);
}

/// Stale-placement counter deltas across `run`.
std::pair<int64_t, int64_t> PlacementDeltas(const std::function<void()>& run) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* accepted =
      registry.GetCounter("maroon.phase1.stale_placements_accepted");
  obs::Counter* rejected =
      registry.GetCounter("maroon.phase1.stale_placements_rejected");
  const int64_t accepted_before = accepted->value();
  const int64_t rejected_before = rejected->value();
  run();
  return {accepted->value() - accepted_before,
          rejected->value() - rejected_before};
}

// Golden totals, printed by the build that still added each placement to the
// registry as it happened: one event per Eq. 10 decision, however the counts
// are batched on their way to the registry.
TEST_F(ClusterGeneratorExampleTest, StalePlacementCountsArePinned) {
  const auto [accepted, rejected] = PlacementDeltas([&] { Generate(); });
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(rejected, 11);
}

TEST(ClusterGeneratorCounterTest, WidthTwoLinkAllPlacementCountsArePinned) {
  RecruitmentOptions options;
  options.seed = 7;
  options.num_entities = 120;
  options.num_names = 40;
  const Dataset dataset = GenerateRecruitmentDataset(options);
  Experiment experiment(&dataset, ExperimentOptions{});
  experiment.Prepare();
  const Maroon maroon(&experiment.transition_model(),
                      &experiment.freshness_model(), &experiment.similarity(),
                      dataset.attributes(), MaroonOptions{});
  std::vector<EntityId> targets;
  for (const auto& [id, target] : dataset.targets()) targets.push_back(id);
  BatchLinkOptions link_options;
  link_options.threads = 2;
  const auto [accepted, rejected] = PlacementDeltas([&] {
    const BatchLinkResult result =
        BatchLinker(&maroon, link_options).LinkAll(dataset, targets);
    EXPECT_EQ(result.per_entity.size(), targets.size());
  });
  EXPECT_EQ(accepted, 4038);
  EXPECT_EQ(rejected, 47733);
}

}  // namespace
}  // namespace maroon
