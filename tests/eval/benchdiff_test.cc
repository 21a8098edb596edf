#include "eval/benchdiff.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "common/logging.h"
#include "obs/json.h"

namespace maroon {
namespace {

obs::JsonValue Parse(const std::string& text) {
  auto value = obs::ParseJson(text);
  MAROON_CHECK(value.ok()) << value.status();
  return *std::move(value);
}

/// A minimal two-row baseline in the run_bench.sh document shape.
std::string Doc(double phase1_s, double total_wall_s, double overhead_pct,
                double records_per_s = 1000.0) {
  std::string out = R"({
    "schema": "maroon_bench_runtime_v1",
    "rows": [
      {"bench": "fig7_runtime", "method": "MAROON", "threads": 1,
       "entities": 100, "phase1_s": )";
  out += std::to_string(phase1_s);
  out += R"(, "total_wall_s": )";
  out += std::to_string(total_wall_s);
  out += R"(, "result_hash": 12345},
      {"bench": "fig7_runtime", "method": "AFDS", "threads": 1,
       "entities": 100, "total_wall_s": 0.050, "records_per_s": )";
  out += std::to_string(records_per_s);
  out += R"(}
    ],
    "overhead": {"overhead_pct": )";
  out += std::to_string(overhead_pct);
  out += R"(}
  })";
  return out;
}

TEST(BenchDiffTest, IdenticalDocumentsPass) {
  const obs::JsonValue doc = Parse(Doc(0.100, 0.200, 1.5));
  const BenchDiffReport report = DiffBenchDocuments(doc, doc);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_EQ(report.regressions, 0);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_TRUE(report.additions.empty());
  // Every timing and numeric metric shows up as a compared entry.
  EXPECT_FALSE(report.entries.empty());
  for (const BenchDiffEntry& e : report.entries) {
    EXPECT_DOUBLE_EQ(e.delta_pct, 0.0) << e.row_key << " " << e.metric;
    EXPECT_FALSE(e.regressed);
  }
}

TEST(BenchDiffTest, RegressionPastThresholdFails) {
  const obs::JsonValue baseline = Parse(Doc(0.100, 0.200, 1.5));
  const obs::JsonValue current = Parse(Doc(0.140, 0.200, 1.5));  // +40%
  const BenchDiffReport report = DiffBenchDocuments(baseline, current);
  EXPECT_FALSE(report.ok()) << report.ToText();
  EXPECT_EQ(report.regressions, 1);
  bool found = false;
  for (const BenchDiffEntry& e : report.entries) {
    if (e.metric != "phase1_s") continue;
    if (e.row_key.find("MAROON") == std::string::npos) continue;
    found = true;
    EXPECT_TRUE(e.gated);
    EXPECT_TRUE(e.regressed);
    EXPECT_NEAR(e.delta_pct, 40.0, 1e-9);
  }
  EXPECT_TRUE(found) << report.ToText();
  // The report text names the verdict and the offending metric.
  EXPECT_NE(report.ToText().find("phase1_s"), std::string::npos);
}

TEST(BenchDiffTest, ThresholdIsConfigurable) {
  const obs::JsonValue baseline = Parse(Doc(0.100, 0.200, 1.5));
  const obs::JsonValue current = Parse(Doc(0.140, 0.200, 1.5));
  BenchDiffOptions options;
  options.threshold_pct = 50.0;  // +40% now passes
  EXPECT_TRUE(DiffBenchDocuments(baseline, current, options).ok());
}

TEST(BenchDiffTest, NoiseFloorSuppressesTinyTimings) {
  // 1ms -> 4ms is +300%, but both sides sit under the 5ms noise floor.
  const obs::JsonValue baseline = Parse(Doc(0.001, 0.200, 1.5));
  const obs::JsonValue current = Parse(Doc(0.004, 0.200, 1.5));
  const BenchDiffReport report = DiffBenchDocuments(baseline, current);
  EXPECT_TRUE(report.ok()) << report.ToText();
  for (const BenchDiffEntry& e : report.entries) {
    if (e.metric == "phase1_s") {
      EXPECT_FALSE(e.gated);
    }
  }
  // A floor of zero re-arms the gate.
  BenchDiffOptions options;
  options.min_seconds = 0.0;
  EXPECT_FALSE(DiffBenchDocuments(baseline, current, options).ok());
}

TEST(BenchDiffTest, NonTimingMetricsAreNeverGated) {
  // overhead_pct triples and a throughput grows 25x (a `_per_s` rate, though
  // it ends in `_s`); both are reported but neither is a regression.
  const obs::JsonValue baseline = Parse(Doc(0.100, 0.200, 1.0, 1000.0));
  const obs::JsonValue current = Parse(Doc(0.100, 0.200, 3.0, 25000.0));
  const BenchDiffReport report = DiffBenchDocuments(baseline, current);
  EXPECT_TRUE(report.ok()) << report.ToText();
  int found = 0;
  for (const BenchDiffEntry& e : report.entries) {
    if (e.metric == "overhead_pct") {
      ++found;
      EXPECT_FALSE(e.gated);
      EXPECT_NEAR(e.delta_pct, 200.0, 1e-9);
    } else if (e.metric == "records_per_s") {
      ++found;
      EXPECT_FALSE(e.gated);
      EXPECT_NEAR(e.delta_pct, 2400.0, 1e-9);
    }
  }
  EXPECT_EQ(found, 2) << report.ToText();
}

TEST(BenchDiffTest, ResultHashChangesAreIgnored) {
  const obs::JsonValue baseline = Parse(Doc(0.100, 0.200, 1.5));
  std::string changed = Doc(0.100, 0.200, 1.5);
  const size_t pos = changed.find("12345");
  ASSERT_NE(pos, std::string::npos);
  changed.replace(pos, 5, "99999");
  const BenchDiffReport report =
      DiffBenchDocuments(baseline, Parse(changed));
  EXPECT_TRUE(report.ok()) << report.ToText();
  for (const BenchDiffEntry& e : report.entries) {
    EXPECT_NE(e.metric, "result_hash");
  }
}

TEST(BenchDiffTest, MissingRowIsAnError) {
  const obs::JsonValue baseline = Parse(Doc(0.100, 0.200, 1.5));
  // Current document keeps only the MAROON row.
  const obs::JsonValue current = Parse(R"({
    "schema": "maroon_bench_runtime_v1",
    "rows": [
      {"bench": "fig7_runtime", "method": "MAROON", "threads": 1,
       "entities": 100, "phase1_s": 0.100, "total_wall_s": 0.200,
       "result_hash": 12345}
    ],
    "overhead": {"overhead_pct": 1.5}
  })");
  const BenchDiffReport report = DiffBenchDocuments(baseline, current);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors[0].find("AFDS"), std::string::npos)
      << report.ToText();
}

TEST(BenchDiffTest, MissingMetricIsAnError) {
  const obs::JsonValue baseline = Parse(Doc(0.100, 0.200, 1.5));
  std::string shrunk = Doc(0.100, 0.200, 1.5);
  const size_t pos = shrunk.find("\"phase1_s\"");
  ASSERT_NE(pos, std::string::npos);
  // Rename the metric away so the baseline's phase1_s has no counterpart.
  shrunk.replace(pos, 10, "\"phase9_s\"");
  const BenchDiffReport report =
      DiffBenchDocuments(baseline, Parse(shrunk));
  EXPECT_FALSE(report.ok());
  bool missing_reported = false;
  for (const std::string& e : report.errors) {
    if (e.find("phase1_s") != std::string::npos) missing_reported = true;
  }
  EXPECT_TRUE(missing_reported) << report.ToText();
  // The renamed metric on the current side is an addition, not an error.
  bool addition_reported = false;
  for (const std::string& a : report.additions) {
    if (a.find("phase9_s") != std::string::npos) addition_reported = true;
  }
  EXPECT_TRUE(addition_reported) << report.ToText();
}

TEST(BenchDiffTest, WrongSchemaIsAnError) {
  const obs::JsonValue good = Parse(Doc(0.100, 0.200, 1.5));
  const obs::JsonValue bad =
      Parse(R"({"schema": "something_else", "rows": []})");
  EXPECT_FALSE(DiffBenchDocuments(good, bad).ok());
  EXPECT_FALSE(DiffBenchDocuments(bad, good).ok());
}

TEST(BenchDiffTest, MillisecondMetricsUseConvertedNoiseFloor) {
  // 40ms -> 80ms (+100%) in an _ms metric: 0.04s is over the 5ms floor, so
  // it gates; the same values under a 100ms floor do not.
  const std::string base = R"({
    "schema": "maroon_bench_runtime_v1",
    "rows": [{"bench": "b", "lat_ms": 40.0}]
  })";
  const std::string cur = R"({
    "schema": "maroon_bench_runtime_v1",
    "rows": [{"bench": "b", "lat_ms": 80.0}]
  })";
  EXPECT_FALSE(DiffBenchDocuments(Parse(base), Parse(cur)).ok());
  BenchDiffOptions options;
  options.min_seconds = 0.1;
  EXPECT_TRUE(DiffBenchDocuments(Parse(base), Parse(cur), options).ok());
}

TEST(BenchDiffTest, ToJsonEmitsSchemaAndVerdict) {
  const obs::JsonValue baseline = Parse(Doc(0.100, 0.200, 1.5));
  const obs::JsonValue current = Parse(Doc(0.140, 0.200, 1.5));
  const BenchDiffReport report = DiffBenchDocuments(baseline, current);
  auto parsed = obs::ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue* schema = parsed->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value, "maroon_benchdiff_v1");
  const obs::JsonValue* regressions = parsed->Find("regressions");
  ASSERT_NE(regressions, nullptr);
  EXPECT_DOUBLE_EQ(regressions->number_value, 1.0);
  const obs::JsonValue* ok = parsed->Find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->bool_value);
  const obs::JsonValue* entries = parsed->Find("entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_TRUE(entries->is_array());
  EXPECT_FALSE(entries->array.empty());
}

TEST(BenchDiffTest, DiffBenchFilesRoundTrips) {
  const std::string dir = ::testing::TempDir();
  const std::string baseline_path = dir + "/benchdiff_baseline.json";
  const std::string current_path = dir + "/benchdiff_current.json";
  {
    std::ofstream(baseline_path) << Doc(0.100, 0.200, 1.5);
    std::ofstream(current_path) << Doc(0.100, 0.210, 1.5);  // +5%: passes
  }
  auto report = DiffBenchFiles(baseline_path, current_path);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->ok()) << report->ToText();

  auto missing = DiffBenchFiles(dir + "/does_not_exist.json", current_path);
  EXPECT_FALSE(missing.ok());

  const std::string garbage_path = dir + "/benchdiff_garbage.json";
  { std::ofstream(garbage_path) << "not json at all"; }
  auto garbage = DiffBenchFiles(baseline_path, garbage_path);
  EXPECT_FALSE(garbage.ok());
}

}  // namespace
}  // namespace maroon
