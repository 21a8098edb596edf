#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/dataset_io.h"
#include "core/validation.h"
#include "datagen/dblp_generator.h"
#include "datagen/fault_injector.h"
#include "datagen/recruitment_generator.h"
#include "eval/experiment.h"
#include "matching/batch_linker.h"
#include "matching/maroon.h"

namespace maroon {
namespace {

/// ISSUE contract: BatchLinker::LinkAll at 1 thread and at 8 threads must
/// produce identical results on a realistic, fault-injected corpus — the
/// parallel path may not change a single link assignment. The corpus goes
/// through the full dirty-data pipeline (generate -> serialize -> corrupt ->
/// quarantine-load) so the equality claim covers the deployment shape, not a
/// sanitized fixture.
class BatchParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/maroon_par_det_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Generates a noisy recruitment corpus, corrupts its serialization with
  /// every structural fault class, and loads it back under kQuarantine.
  /// Fills `quarantined` with the report's total drop count.
  Dataset CorruptedCorpus(size_t* quarantined) {
    RecruitmentOptions options;
    options.seed = 37;
    options.num_entities = 80;
    options.num_names = 25;
    options.social_source_error_rate = 0.2;
    options.social_source_name_typo_rate = 0.1;
    const Dataset clean = GenerateRecruitmentDataset(options);
    EXPECT_TRUE(WriteDatasetCsv(clean, dir_).ok());

    FaultInjectorOptions faults;
    faults.seed = 41;
    faults.drop_cell_rate = 0.03;
    faults.invert_interval_rate = 0.03;
    faults.duplicate_record_rate = 0.03;
    faults.unknown_source_rate = 0.03;
    faults.shuffle_timestamp_rate = 0.03;
    faults.mangle_separator_rate = 0.03;
    FaultInjector injector(faults);
    auto fault_report = injector.CorruptDirectory(dir_);
    EXPECT_TRUE(fault_report.ok()) << fault_report.status();
    EXPECT_GT(fault_report->total(), 0u);

    CsvLoadOptions lenient;
    lenient.validation.policy = RepairPolicy::kQuarantine;
    lenient.infer_plausible_window = true;
    ValidationReport report;
    auto loaded = ReadDatasetCsv(dir_, lenient, &report);
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    *quarantined = report.TotalQuarantined();
    return std::move(*loaded);
  }

  /// Links every target of `dataset` at 1 and at 8 threads (TF-IDF fitted
  /// by Experiment::Prepare) and expects identical results.
  void ExpectOneAndEightThreadsLinkIdentically(const Dataset& dataset) {
    Experiment experiment(&dataset, ExperimentOptions{});
    experiment.Prepare();
    ASSERT_NE(experiment.similarity().tfidf_model(), nullptr);
    MaroonOptions maroon_options;
    maroon_options.matcher.single_valued_attributes = dataset.attributes();
    const Maroon maroon(&experiment.transition_model(),
                        &experiment.freshness_model(),
                        &experiment.similarity(), dataset.attributes(),
                        maroon_options);

    std::vector<EntityId> targets;
    for (const auto& [id, target] : dataset.targets()) targets.push_back(id);
    ASSERT_GT(targets.size(), 10u);

    BatchLinkOptions serial_options;
    serial_options.threads = 1;
    const BatchLinkResult serial =
        BatchLinker(&maroon, serial_options).LinkAll(dataset, targets);

    BatchLinkOptions parallel_options;
    parallel_options.threads = 8;
    const BatchLinkResult parallel =
        BatchLinker(&maroon, parallel_options).LinkAll(dataset, targets);

    // The record -> entity assignment is the batch's externally visible
    // verdict; it must not depend on thread interleaving.
    EXPECT_EQ(serial.assignment, parallel.assignment);
    EXPECT_EQ(serial.contested_records, parallel.contested_records);
    EXPECT_EQ(serial.skipped_entities, parallel.skipped_entities);
    EXPECT_EQ(serial.skipped_candidates, parallel.skipped_candidates);

    // Per-entity detail: same entities linked, same records matched, same
    // cluster structure out of Phase I.
    ASSERT_EQ(serial.per_entity.size(), parallel.per_entity.size());
    for (const auto& [id, serial_link] : serial.per_entity) {
      const auto it = parallel.per_entity.find(id);
      ASSERT_NE(it, parallel.per_entity.end()) << "entity " << id;
      EXPECT_EQ(serial_link.match.matched_records,
                it->second.match.matched_records)
          << "entity " << id;
      EXPECT_EQ(serial_link.num_clusters, it->second.num_clusters)
          << "entity " << id;
      EXPECT_EQ(serial_link.skipped_candidates, it->second.skipped_candidates)
          << "entity " << id;
    }
  }

  std::string dir_;
};

TEST_F(BatchParallelDeterminismTest, OneAndEightThreadsLinkIdentically) {
  size_t quarantined = 0;
  const Dataset dataset = CorruptedCorpus(&quarantined);
  EXPECT_GT(quarantined, 0u) << "fault injection never fired";

  ExpectOneAndEightThreadsLinkIdentically(dataset);
}

TEST_F(BatchParallelDeterminismTest, OneAndEightThreadsLinkDblpWithTfIdf) {
  // DBLP's coauthor lists are set-valued, so Phase I scores them by TF-IDF
  // cosine through each Generate call's similarity memo.
  DblpOptions options;
  options.seed = 11;
  options.num_entities = 60;
  options.num_names = 10;
  const Dataset dataset = GenerateDblpCorpus(options).dataset;
  ExpectOneAndEightThreadsLinkIdentically(dataset);
}

TEST_F(BatchParallelDeterminismTest, QuarantineLoadIsRepeatable) {
  // Two independent passes through generate -> corrupt -> quarantine-load
  // must agree on the quarantine count — the parallel-equality test above
  // depends on the corpus itself being reproducible.
  size_t first = 0;
  const Dataset a = CorruptedCorpus(&first);
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  size_t second = 0;
  const Dataset b = CorruptedCorpus(&second);
  EXPECT_EQ(first, second);
  EXPECT_EQ(a.NumRecords(), b.NumRecords());
}

}  // namespace
}  // namespace maroon
