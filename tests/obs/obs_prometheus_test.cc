#include "obs/prometheus.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace maroon {
namespace obs {
namespace {

class PrometheusTest : public ::testing::Test {
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

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST_F(PrometheusTest, NameSanitizesToPrometheusCharset) {
  EXPECT_EQ(PrometheusName("maroon.phase1.clusters_formed"),
            "maroon_phase1_clusters_formed");
  EXPECT_EQ(PrometheusName("maroon.link.entity_seconds"),
            "maroon_link_entity_seconds");
  EXPECT_EQ(PrometheusName("weird-name:ok/2"), "weird_name:ok_2");
  // Leading digit is not a valid first character.
  EXPECT_EQ(PrometheusName("9lives"), "_lives");
}

TEST_F(PrometheusTest, CountersAndGaugesRenderOneSampleEach) {
  MetricsRegistry::Snapshot snapshot;
  snapshot.counters["maroon.test.rows"] = 42;
  snapshot.gauges["maroon.test.ratio"] = 0.5;
  const std::string text = PrometheusText(snapshot);
  EXPECT_TRUE(Contains(text, "# TYPE maroon_test_rows counter")) << text;
  EXPECT_TRUE(Contains(text, "# HELP maroon_test_rows ")) << text;
  EXPECT_TRUE(Contains(text, "maroon_test_rows 42\n")) << text;
  EXPECT_TRUE(Contains(text, "# TYPE maroon_test_ratio gauge")) << text;
  EXPECT_TRUE(Contains(text, "maroon_test_ratio 0.5\n")) << text;
}

/// Occurrences of `needle` in `haystack`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(PrometheusTest, ScoreHistogramRendersOnSharedLadder) {
  // An Eq. 15-style best-score family in [0, 1] renders on the same ladder
  // as the latency families: no per-family bounds.
  Histogram h;
  for (const double score : {0.05, 0.5, 0.5, 0.9, 1.0}) h.Record(score);
  MetricsRegistry::Snapshot snapshot;
  snapshot.histograms["maroon.test.best_score"] = h.Snapshot();
  const std::string text = PrometheusText(snapshot);
  EXPECT_TRUE(Contains(text, "# TYPE maroon_test_best_score histogram"))
      << text;
  // Cumulative over the 1e-5 * 4^k rungs; a [0, 1] score fills the top
  // ones.
  EXPECT_TRUE(
      Contains(text, "maroon_test_best_score_bucket{le=\"0.04096\"} 0\n"))
      << text;
  EXPECT_TRUE(
      Contains(text, "maroon_test_best_score_bucket{le=\"0.16384\"} 1\n"))
      << text;
  EXPECT_TRUE(
      Contains(text, "maroon_test_best_score_bucket{le=\"0.65536\"} 3\n"))
      << text;
  EXPECT_TRUE(
      Contains(text, "maroon_test_best_score_bucket{le=\"2.62144\"} 5\n"))
      << text;
  EXPECT_TRUE(
      Contains(text, "maroon_test_best_score_bucket{le=\"+Inf\"} 5\n"))
      << text;
  EXPECT_TRUE(Contains(text, "maroon_test_best_score_sum 2.95\n")) << text;
  EXPECT_TRUE(Contains(text, "maroon_test_best_score_count 5\n")) << text;
  EXPECT_EQ(CountOf(text, "maroon_test_best_score_bucket{le="),
            ScrapeBucketBounds().size() + 1);
  const std::vector<std::string> problems = PrometheusLint(text);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST_F(PrometheusTest, HistogramDownsamplesToScrapeLadder) {
  Histogram h;
  h.Record(0.00005);  // 50us
  h.Record(0.003);    // 3ms
  h.Record(0.003);
  h.Record(2.0);      // 2s
  MetricsRegistry::Snapshot snapshot;
  snapshot.histograms["maroon.test.link_seconds"] = h.Snapshot();
  const std::string text = PrometheusText(snapshot);
  EXPECT_TRUE(Contains(text, "# TYPE maroon_test_link_seconds histogram"))
      << text;
  // The ladder is ScrapeBucketBounds(): 1e-5 * 4^k. Spot-check the
  // cumulative counts at a few rungs against CountAtOrBelow semantics.
  EXPECT_TRUE(
      Contains(text, "maroon_test_link_seconds_bucket{le=\"1e-05\"} 0\n"))
      << text;
  EXPECT_TRUE(
      Contains(text, "maroon_test_link_seconds_bucket{le=\"0.00016\"} 1\n"))
      << text;
  EXPECT_TRUE(
      Contains(text, "maroon_test_link_seconds_bucket{le=\"0.01024\"} 3\n"))
      << text;
  EXPECT_TRUE(
      Contains(text, "maroon_test_link_seconds_bucket{le=\"+Inf\"} 4\n"))
      << text;
  EXPECT_TRUE(Contains(text, "maroon_test_link_seconds_count 4\n")) << text;
  // Every rung of the ladder plus +Inf is present exactly once.
  EXPECT_EQ(CountOf(text, "maroon_test_link_seconds_bucket{le="),
            ScrapeBucketBounds().size() + 1);
}

TEST_F(PrometheusTest, GlobalRenderPicksUpRegisteredMetrics) {
  MAROON_COUNTER("maroon.test.prom_counter")->Add(7);
  MAROON_HISTOGRAM("maroon.test.prom_seconds")->Record(0.001);
  const std::string text = PrometheusTextFromGlobal();
  EXPECT_TRUE(Contains(text, "maroon_test_prom_counter 7\n")) << text;
  EXPECT_TRUE(Contains(text, "maroon_test_prom_seconds_count 1\n")) << text;
  EXPECT_TRUE(Contains(text, "maroon_test_prom_seconds_sum 0.001\n")) << text;
}

TEST_F(PrometheusTest, EmptySnapshotRendersEmptyDocument) {
  MetricsRegistry::Snapshot snapshot;
  EXPECT_EQ(PrometheusText(snapshot), "");
}

TEST_F(PrometheusTest, HelpTextEscapesBackslashesAndNewlines) {
  EXPECT_EQ(PrometheusEscapeHelp("plain text"), "plain text");
  EXPECT_EQ(PrometheusEscapeHelp("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeHelp("line1\nline2"), "line1\\nline2");
  // Double quotes are legal in HELP text and stay as-is.
  EXPECT_EQ(PrometheusEscapeHelp("say \"hi\""), "say \"hi\"");
}

TEST_F(PrometheusTest, LabelValuesEscapeQuotesToo) {
  EXPECT_EQ(PrometheusEscapeLabel("v1.0.0"), "v1.0.0");
  EXPECT_EQ(PrometheusEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabel("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PrometheusEscapeLabel("line1\nline2"), "line1\\nline2");
}

TEST_F(PrometheusTest, CollidingSanitizedNamesKeepOneSeries) {
  MetricsRegistry::Snapshot snapshot;
  // Both sanitize to maroon_coll_x; map order makes "maroon.coll-x" first.
  snapshot.counters["maroon.coll-x"] = 1;
  snapshot.counters["maroon.coll.x"] = 2;
  const std::string text = PrometheusText(snapshot);
  size_t samples = 0;
  size_t pos = 0;
  while ((pos = text.find("\nmaroon_coll_x ", pos)) != std::string::npos) {
    ++samples;
    ++pos;
  }
  EXPECT_EQ(samples, 1u) << text;
  EXPECT_TRUE(
      Contains(text, "# maroon: dropped colliding series maroon.coll.x"))
      << text;
  // The deduplicated document still lints clean.
  EXPECT_TRUE(PrometheusLint(text).empty()) << text;
}

TEST_F(PrometheusTest, BuildInfoGaugeRendersWithVersionLabels) {
  RegisterBuildMetrics();
  const std::string text = PrometheusTextFromGlobal();
  EXPECT_TRUE(Contains(text, "maroon_build_info{version=\"")) << text;
  EXPECT_TRUE(Contains(text, "revision=\"")) << text;
  EXPECT_TRUE(Contains(text, "maroon_build_info{version=\"" +
                                 PrometheusEscapeLabel(BuildVersion()) +
                                 "\""))
      << text;
  EXPECT_TRUE(Contains(text, "maroon_uptime_seconds ")) << text;
  EXPECT_TRUE(PrometheusLint(text).empty()) << text;
}

TEST_F(PrometheusTest, UptimeAdvancesAcrossSnapshots) {
  RegisterBuildMetrics();
  const auto first = MetricsRegistry::Global().TakeSnapshot();
  const auto second = MetricsRegistry::Global().TakeSnapshot();
  ASSERT_EQ(first.gauges.count("maroon.uptime_seconds"), 1u);
  ASSERT_EQ(second.gauges.count("maroon.uptime_seconds"), 1u);
  EXPECT_GE(second.gauges.at("maroon.uptime_seconds"),
            first.gauges.at("maroon.uptime_seconds"));
  EXPECT_GT(second.gauges.at("maroon.uptime_seconds"), 0.0);
}

TEST_F(PrometheusTest, RealExportLintsClean) {
  MAROON_COUNTER("maroon.test.lint_rows")->Add(12);
  MAROON_GAUGE("maroon.test.lint_ratio")->Set(0.25);
  MAROON_HISTOGRAM("maroon.test.lint_seconds")->Record(0.004);
  const std::vector<std::string> problems =
      PrometheusLint(PrometheusTextFromGlobal());
  EXPECT_TRUE(problems.empty())
      << problems.size() << " problems, first: " << problems.front();
}

TEST_F(PrometheusTest, LintAcceptsAnEmptyDocument) {
  EXPECT_TRUE(PrometheusLint("").empty());
}

TEST_F(PrometheusTest, LintFlagsBadMetricNames) {
  const auto problems = PrometheusLint("9bad_name 1\n");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_TRUE(Contains(problems[0], "line 1")) << problems[0];
}

TEST_F(PrometheusTest, LintFlagsMissingTypeForHistogramFamilies) {
  // _bucket samples without a "# TYPE <base> histogram" header.
  const auto problems = PrometheusLint(
      "x_bucket{le=\"1\"} 1\nx_bucket{le=\"+Inf\"} 1\nx_count 1\nx_sum 1\n");
  EXPECT_FALSE(problems.empty());
}

TEST_F(PrometheusTest, LintFlagsNonCumulativeHistogramBuckets) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"2\"} 3\n"  // decreasing: not cumulative
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_sum 10\n"
      "h_count 5\n";
  const auto problems = PrometheusLint(text);
  ASSERT_FALSE(problems.empty());
  bool mentioned = false;
  for (const std::string& problem : problems) {
    if (Contains(problem, "cumulative")) mentioned = true;
  }
  EXPECT_TRUE(mentioned) << problems.front();
}

TEST_F(PrometheusTest, LintFlagsMissingInfBucket) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_sum 10\n"
      "h_count 5\n";
  EXPECT_FALSE(PrometheusLint(text).empty());
}

TEST_F(PrometheusTest, LintFlagsCountDisagreeingWithInf) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_sum 10\n"
      "h_count 7\n";
  EXPECT_FALSE(PrometheusLint(text).empty());
}

TEST_F(PrometheusTest, LintFlagsDuplicateTypeLinesAndBadLabelSyntax) {
  EXPECT_FALSE(
      PrometheusLint("# TYPE a counter\n# TYPE a counter\na 1\n").empty());
  EXPECT_FALSE(PrometheusLint("a{9bad=\"x\"} 1\n").empty());
  EXPECT_FALSE(PrometheusLint("a{l=\"unterminated} 1\n").empty());
  EXPECT_FALSE(PrometheusLint("a notanumber\n").empty());
}

TEST_F(PrometheusTest, LintAcceptsEscapedLabelValuesAndTimestamps) {
  EXPECT_TRUE(
      PrometheusLint("# TYPE a gauge\n"
                     "a{l=\"quote \\\" slash \\\\ nl \\n\"} 1\n")
          .empty());
  EXPECT_TRUE(
      PrometheusLint("# TYPE a gauge\na{l=\"x\"} +Inf\n").empty());
  EXPECT_TRUE(
      PrometheusLint("# TYPE a gauge\na 1 1700000000\n").empty());
  EXPECT_FALSE(
      PrometheusLint("# TYPE a gauge\na 1 not-a-timestamp\n").empty());
}

TEST_F(PrometheusTest, LintDemandsTypeBeforeEverySample) {
  // This exporter always emits TYPE headers, so the lint treats a bare
  // sample as a problem even though the wire format tolerates it.
  const auto problems = PrometheusLint("untyped_sample 1\n");
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_TRUE(Contains(problems[0], "precedes its TYPE")) << problems[0];
}

}  // namespace
}  // namespace obs
}  // namespace maroon
