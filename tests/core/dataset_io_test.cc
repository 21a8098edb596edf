#include "core/dataset_io.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/csv.h"
#include "datagen/recruitment_generator.h"
#include "testing/paper_example.h"

namespace maroon {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest -j runs cases in concurrent processes.
    dir_ = ::testing::TempDir() + "/maroon_io_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(DatasetIoTest, PaperExampleRoundTrips) {
  const Dataset original = testing::PaperRecords();
  ASSERT_TRUE(WriteDatasetCsv(original, dir_).ok());

  auto loaded = ReadDatasetCsv(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumRecords(), original.NumRecords());
  EXPECT_EQ(loaded->attributes(), original.attributes());
  EXPECT_EQ(loaded->sources().size(), original.sources().size());
  for (RecordId id = 0; id < original.NumRecords(); ++id) {
    EXPECT_EQ(loaded->record(id).ToString(), original.record(id).ToString());
    EXPECT_EQ(loaded->LabelOf(id), original.LabelOf(id));
  }
  ASSERT_EQ(loaded->targets().size(), 1u);
  const TargetEntity& target = loaded->targets().begin()->second;
  const TargetEntity& expected = original.targets().begin()->second;
  EXPECT_EQ(target.clean_profile.ToString(), expected.clean_profile.ToString());
  EXPECT_EQ(target.ground_truth.ToString(), expected.ground_truth.ToString());
}

TEST_F(DatasetIoTest, GeneratedDatasetRoundTrips) {
  RecruitmentOptions options;
  options.seed = 5;
  options.num_entities = 25;
  options.num_names = 10;
  const Dataset original = GenerateRecruitmentDataset(options);
  ASSERT_TRUE(WriteDatasetCsv(original, dir_).ok());

  auto loaded = ReadDatasetCsv(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumRecords(), original.NumRecords());
  EXPECT_EQ(loaded->targets().size(), original.targets().size());
  for (RecordId id = 0; id < original.NumRecords(); ++id) {
    EXPECT_EQ(loaded->record(id).ToString(), original.record(id).ToString());
  }
  for (const auto& [id, target] : original.targets()) {
    auto loaded_target = loaded->target(id);
    ASSERT_TRUE(loaded_target.ok());
    EXPECT_EQ((*loaded_target)->ground_truth.ToString(),
              target.ground_truth.ToString());
  }
}

TEST_F(DatasetIoTest, ValuesWithSpecialCharactersSurvive) {
  Dataset dataset;
  dataset.SetAttributes({"Org"});
  dataset.AddSource("Weird, \"Source\"");
  TemporalRecord r(0, "Name, with comma", 2001, 0);
  r.SetValue("Org", MakeValueSet({"Quest, Inc.", "A \"quoted\" org"}));
  const RecordId id = dataset.AddRecord(std::move(r));
  (void)dataset.SetLabel(id, "e1");
  TargetEntity target;
  target.clean_profile = EntityProfile("e1", "Name, with comma");
  (void)target.clean_profile.sequence("Org").Append(
      Triple(2000, 2001, MakeValueSet({"Quest, Inc."})));
  target.ground_truth = target.clean_profile;
  (void)dataset.AddTarget("e1", std::move(target));

  ASSERT_TRUE(WriteDatasetCsv(dataset, dir_).ok());
  auto loaded = ReadDatasetCsv(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->record(0).GetValue("Org"),
            MakeValueSet({"Quest, Inc.", "A \"quoted\" org"}));
  EXPECT_EQ(loaded->record(0).name(), "Name, with comma");
}

TEST_F(DatasetIoTest, MissingDirectoryFails) {
  auto loaded = ReadDatasetCsv("/nonexistent/dir");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(DatasetIoTest, MalformedRecordsFileFails) {
  const Dataset original = testing::PaperRecords();
  ASSERT_TRUE(WriteDatasetCsv(original, dir_).ok());
  // Corrupt the timestamp column of one record.
  CsvWriter writer;
  writer.AppendRow({"id", "name", "timestamp", "source", "label", "Interests",
                    "Location", "Organization", "Title"});
  writer.AppendRow({"0", "X", "not-a-year", "GooglePlus", "", "", "", "", ""});
  ASSERT_TRUE(writer.WriteToFile(dir_ + "/records.csv").ok());
  auto loaded = ReadDatasetCsv(dir_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetIoTest, UnknownSourceFails) {
  const Dataset original = testing::PaperRecords();
  ASSERT_TRUE(WriteDatasetCsv(original, dir_).ok());
  CsvWriter writer;
  writer.AppendRow({"id", "name", "timestamp", "source", "label", "Interests",
                    "Location", "Organization", "Title"});
  writer.AppendRow({"0", "X", "2001", "NoSuchSource", "", "", "", "", ""});
  ASSERT_TRUE(writer.WriteToFile(dir_ + "/records.csv").ok());
  auto loaded = ReadDatasetCsv(dir_);
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace maroon
