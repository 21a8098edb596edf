#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace maroon {
namespace obs {
namespace {

std::string GoldenPath() {
  return std::string(MAROON_SOURCE_DIR) +
         "/tests/obs/testdata/run_report_golden.json";
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Registers the fixed metric set every test in this binary works against,
/// so the registry snapshot stays deterministic regardless of test order.
RunReportOptions PrepareFixedRunState() {
  MetricsRegistry::SetEnabled(true);
  MetricsRegistry::Global().ResetAll();
  Tracer::SetEnabled(false);
  Tracer::Global().Clear();
  MAROON_COUNTER("maroon.test.records")->Add(42);
  MAROON_GAUGE("maroon.test.mean_delay")->Set(1.5);
  Histogram* h = MAROON_HISTOGRAM("maroon.test.score");
  h->Record(0.25);
  h->Record(0.75);
  Histogram* latency = MAROON_HISTOGRAM("maroon.test.link_seconds");
  latency->Record(0.001);
  latency->Record(0.002);
  RunReportOptions options;
  options.config = {{"command", "link"}, {"data", "corpus/"}};
  options.include_timestamp = false;
  return options;
}

TEST(RunReportTest, MatchesGoldenFile) {
  const RunReportOptions options = PrepareFixedRunState();
  const std::string json = BuildRunReportJson(options) + "\n";
  // Regenerate with MAROON_REGEN_GOLDEN=1 after intentional schema changes.
  const char* regen = std::getenv("MAROON_REGEN_GOLDEN");
  if (regen != nullptr && *regen != '\0') {
    ASSERT_TRUE(WriteTextFile(GoldenPath(), json).ok());
  }
  EXPECT_EQ(json, ReadFileOrEmpty(GoldenPath()));
}

TEST(RunReportTest, JsonRoundTripsThroughParser) {
  const RunReportOptions options = PrepareFixedRunState();
  auto parsed = ParseJson(BuildRunReportJson(options));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("schema")->string_value, "maroon_run_report_v2");
  EXPECT_EQ(parsed->Find("generated_at")->string_value, "");
  const JsonValue* config = parsed->Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->Find("command")->string_value, "link");
  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(
      metrics->Find("counters")->Find("maroon.test.records")->number_value,
      42.0);
  const JsonValue* hist =
      metrics->Find("histograms")->Find("maroon.test.score");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number_value, 2.0);
  EXPECT_DOUBLE_EQ(hist->Find("mean")->number_value, 0.5);
  const JsonValue* latency =
      metrics->Find("histograms")->Find("maroon.test.link_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->Find("count")->number_value, 2.0);
  EXPECT_DOUBLE_EQ(latency->Find("max")->number_value, 0.002);
  ASSERT_NE(latency->Find("p999"), nullptr);
  const JsonValue* trace = parsed->Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_FALSE(trace->Find("enabled")->bool_value);
  EXPECT_DOUBLE_EQ(trace->Find("span_count")->number_value, 0.0);
}

TEST(RunReportTest, TimestampedReportCarriesIso8601Stamp) {
  RunReportOptions options = PrepareFixedRunState();
  options.include_timestamp = true;
  auto parsed = ParseJson(BuildRunReportJson(options));
  ASSERT_TRUE(parsed.ok());
  const std::string& stamp = parsed->Find("generated_at")->string_value;
  ASSERT_EQ(stamp.size(), 20u);
  EXPECT_EQ(stamp[4], '-');
  EXPECT_EQ(stamp[10], 'T');
  EXPECT_EQ(stamp[19], 'Z');
}

TEST(RunReportTest, TextRenderingListsNonZeroCountersAndTrace) {
  const RunReportOptions options = PrepareFixedRunState();
  MAROON_COUNTER("maroon.test.silent")->Add(0);
  const std::string text = RenderRunReportText(options);
  EXPECT_NE(text.find("== MAROON run report =="), std::string::npos);
  EXPECT_NE(text.find("command = link"), std::string::npos);
  EXPECT_NE(text.find("maroon.test.records = 42"), std::string::npos);
  // Zero-valued counters are elided from the table.
  EXPECT_EQ(text.find("maroon.test.silent"), std::string::npos);
  // Every histogram renders one percentile row, in the recorded unit.
  EXPECT_NE(text.find("histograms:"), std::string::npos) << text;
  EXPECT_NE(text.find("maroon.test.score: count=2 mean=0.5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("maroon.test.link_seconds: count=2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("max=0.002\n"), std::string::npos) << text;
  EXPECT_NE(text.find("p999="), std::string::npos) << text;
  EXPECT_NE(text.find("disabled"), std::string::npos);
}

TEST(RunReportTest, WriteTextFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/run_report_io_test.json";
  const std::string content = "{\"a\": 1}\n";
  ASSERT_TRUE(WriteTextFile(path, content).ok());
  EXPECT_EQ(ReadFileOrEmpty(path), content);
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir/x/y.json", content).ok());
}

}  // namespace
}  // namespace obs
}  // namespace maroon
