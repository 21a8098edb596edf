#include "obs/metrics_snapshotter.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace maroon {
namespace obs {
namespace {

class MetricsSnapshotterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::SetEnabled(true);
    MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override {
    MetricsRegistry::Global().ResetAll();
    MetricsRegistry::SetEnabled(true);
  }
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST_F(MetricsSnapshotterTest, StopWritesFinalRowEvenForShortRuns) {
  const std::string path =
      ::testing::TempDir() + "/maroon_snapshotter_final.jsonl";
  MAROON_COUNTER("maroon.test.snap_rows")->Add(3);
  MetricsSnapshotWriterOptions options;
  options.path = path;
  options.period_s = 60.0;  // never fires within the test
  MetricsSnapshotWriter writer(options);
  writer.Stop();
  EXPECT_TRUE(writer.status().ok()) << writer.status();
  EXPECT_EQ(writer.rows_written(), 1);
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  auto row = ParseJson(lines[0]);
  ASSERT_TRUE(row.ok()) << row.status();
  const JsonValue* schema = row->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value, "maroon_metrics_snapshot_v2");
  const JsonValue* seq = row->Find("seq");
  ASSERT_NE(seq, nullptr);
  EXPECT_DOUBLE_EQ(seq->number_value, 0.0);
  const JsonValue* t_s = row->Find("t_s");
  ASSERT_NE(t_s, nullptr);
  EXPECT_GE(t_s->number_value, 0.0);
  const JsonValue* metrics = row->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* snap_rows = counters->Find("maroon.test.snap_rows");
  ASSERT_NE(snap_rows, nullptr);
  EXPECT_DOUBLE_EQ(snap_rows->number_value, 3.0);
}

TEST_F(MetricsSnapshotterTest, PeriodicRowsAccumulateWithAscendingSeq) {
  const std::string path =
      ::testing::TempDir() + "/maroon_snapshotter_periodic.jsonl";
  MetricsSnapshotWriterOptions options;
  options.path = path;
  options.period_s = 0.02;
  MetricsSnapshotWriter writer(options);
  // Wait for at least two periodic ticks, then stop (one more final row).
  while (writer.rows_written() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  writer.Stop();
  EXPECT_TRUE(writer.status().ok()) << writer.status();
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(writer.rows_written(), static_cast<int64_t>(lines.size()));
  double last_t = -1.0;
  for (size_t i = 0; i < lines.size(); ++i) {
    auto row = ParseJson(lines[i]);
    ASSERT_TRUE(row.ok()) << "line " << i << ": " << row.status();
    const JsonValue* seq = row->Find("seq");
    ASSERT_NE(seq, nullptr) << "line " << i;
    EXPECT_DOUBLE_EQ(seq->number_value, static_cast<double>(i));
    const JsonValue* t_s = row->Find("t_s");
    ASSERT_NE(t_s, nullptr) << "line " << i;
    EXPECT_GE(t_s->number_value, last_t) << "line " << i;
    last_t = t_s->number_value;
  }
}

TEST_F(MetricsSnapshotterTest, StopIsIdempotent) {
  const std::string path =
      ::testing::TempDir() + "/maroon_snapshotter_idempotent.jsonl";
  MetricsSnapshotWriterOptions options;
  options.path = path;
  options.period_s = 60.0;
  MetricsSnapshotWriter writer(options);
  writer.Stop();
  writer.Stop();
  EXPECT_EQ(writer.rows_written(), 1);
  EXPECT_EQ(ReadLines(path).size(), 1u);
}

TEST_F(MetricsSnapshotterTest, UnwritablePathLatchesErrorStatus) {
  MetricsSnapshotWriterOptions options;
  options.path = "/nonexistent-dir/maroon_snapshotter.jsonl";
  options.period_s = 60.0;
  MetricsSnapshotWriter writer(options);
  writer.Stop();
  EXPECT_FALSE(writer.status().ok());
  EXPECT_EQ(writer.rows_written(), 0);
}

TEST(PeriodicTimerTest, TicksAdvanceAndStopJoins) {
  std::atomic<int> fired{0};
  PeriodicTimer timer(std::chrono::milliseconds(10),
                      [&fired] { fired.fetch_add(1); });
  while (timer.ticks() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  timer.Stop();
  const int after_stop = fired.load();
  EXPECT_GE(after_stop, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // No further callbacks after Stop() returned.
  EXPECT_EQ(fired.load(), after_stop);
  timer.Stop();  // idempotent
}

TEST(PeriodicTimerTest, StopBeforeFirstTickRunsNoCallback) {
  std::atomic<int> fired{0};
  {
    PeriodicTimer timer(std::chrono::minutes(10),
                        [&fired] { fired.fetch_add(1); });
    // Destructor stops; the first period never elapses.
  }
  EXPECT_EQ(fired.load(), 0);
}

}  // namespace
}  // namespace obs
}  // namespace maroon
