#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/json.h"

namespace maroon {
namespace obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::SetEnabled(true);
    MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override { MetricsRegistry::SetEnabled(true); }
};

TEST_F(MetricsTest, CounterAddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(MetricsTest, GaugeKeepsLastValue) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(1.5);
  g.Set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(MetricsTest, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.Record(0.5);  // bucket 0: v <= 1
  h.Record(1.0);  // bucket 0: boundary values land in their own bucket
  h.Record(1.5);  // bucket 1
  h.Record(4.0);  // bucket 2
  h.Record(4.5);  // overflow
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(s.counts, (std::vector<int64_t>{2, 1, 1, 1}));
  EXPECT_EQ(s.count, 5);
  EXPECT_DOUBLE_EQ(s.sum, 11.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 4.5);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.3);
}

TEST_F(MetricsTest, HistogramOverflowBucketCatchesEverythingAbove) {
  Histogram h({1.0});
  h.Record(1000.0);
  h.Record(1e9);
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.counts.size(), 2u);
  EXPECT_EQ(s.counts[0], 0);
  EXPECT_EQ(s.counts[1], 2);
}

TEST_F(MetricsTest, HistogramResetZeroesStateButKeepsBounds) {
  Histogram h({1.0, 2.0});
  h.Record(0.5);
  h.Reset();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.counts, (std::vector<int64_t>{0, 0, 0}));
  EXPECT_EQ(s.bounds, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST_F(MetricsTest, CanonicalBucketShapes) {
  EXPECT_EQ(UnitIntervalBuckets().size(), 20u);
  EXPECT_DOUBLE_EQ(UnitIntervalBuckets().front(), 0.05);
  EXPECT_DOUBLE_EQ(UnitIntervalBuckets().back(), 1.0);
  EXPECT_EQ(SmallCountBuckets().front(), 1.0);
  EXPECT_EQ(SmallCountBuckets().back(), 1024.0);
  EXPECT_EQ(LatencySecondsBuckets().size(), 11u);
}

TEST_F(MetricsTest, ConcurrentCounterIncrementsLoseNothing) {
  Counter* c = MAROON_COUNTER("maroon.test.concurrent_counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;  // maroon-lint: allow(R008)
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Add();
    });
  }
  for (std::thread& t : threads) t.join();  // maroon-lint: allow(R008)
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST_F(MetricsTest, ConcurrentHistogramRecordsLoseNothing) {
  Histogram h({0.5, 1.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;  // maroon-lint: allow(R008)
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      const double value = (t % 2 == 0) ? 0.25 : 0.75;
      for (int i = 0; i < kPerThread; ++i) h.Record(value);
    });
  }
  for (std::thread& t : threads) t.join();  // maroon-lint: allow(R008)
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.counts[0], kThreads / 2 * kPerThread);
  EXPECT_EQ(s.counts[1], kThreads / 2 * kPerThread);
  EXPECT_EQ(s.counts[2], 0);
}

TEST_F(MetricsTest, RegistryReturnsStablePointersPerName) {
  Counter* a = MAROON_COUNTER("maroon.test.stable");
  Counter* b = MAROON_COUNTER("maroon.test.stable");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, MAROON_COUNTER("maroon.test.other"));
  Histogram* h1 =
      MAROON_HISTOGRAM("maroon.test.hist", (std::vector<double>{1.0, 2.0}));
  // Bounds of an existing histogram are immutable; the second registration's
  // bounds are ignored.
  Histogram* h2 = MAROON_HISTOGRAM("maroon.test.hist", {99.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->Snapshot().bounds, (std::vector<double>{1.0, 2.0}));
}

TEST_F(MetricsTest, DisabledRegistryDropsMutations) {
  Counter* c = MAROON_COUNTER("maroon.test.disabled");
  Gauge* g = MAROON_GAUGE("maroon.test.disabled_gauge");
  Histogram* h = MAROON_HISTOGRAM("maroon.test.disabled_hist", {1.0});
  MetricsRegistry::SetEnabled(false);
  c->Add(5);
  g->Set(5.0);
  h->Record(0.5);
  MetricsRegistry::SetEnabled(true);
  EXPECT_EQ(c->value(), 0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->Snapshot().count, 0);
}

TEST_F(MetricsTest, ResetAllZeroesEveryRegisteredMetric) {
  Counter* c = MAROON_COUNTER("maroon.test.reset_counter");
  Gauge* g = MAROON_GAUGE("maroon.test.reset_gauge");
  Histogram* h = MAROON_HISTOGRAM("maroon.test.reset_hist", {1.0});
  c->Add(3);
  g->Set(3.0);
  h->Record(0.5);
  MetricsRegistry::Global().ResetAll();
  EXPECT_EQ(c->value(), 0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->Snapshot().count, 0);
}

TEST_F(MetricsTest, MacroSiteCachesTheRegistryPointer) {
  // One call site, evaluated repeatedly: it must hand back the registry's
  // own pointer every time, including after ResetAll().
  MetricsRegistry& registry = MetricsRegistry::Global();
  const auto site = [] { return MAROON_COUNTER("maroon.test.cached_site"); };
  Counter* first = site();
  EXPECT_EQ(first, registry.GetCounter("maroon.test.cached_site"));
  EXPECT_EQ(site(), first);
  first->Add(2);
  registry.ResetAll();
  EXPECT_EQ(site(), first);
  site()->Add(5);
  EXPECT_EQ(registry.GetCounter("maroon.test.cached_site")->value(), 5);
}

TEST_F(MetricsTest, SnapshotJsonIsValidAndComplete) {
  MAROON_COUNTER("maroon.test.json_counter")->Add(7);
  MAROON_GAUGE("maroon.test.json_gauge")->Set(0.25);
  Histogram* h = MAROON_HISTOGRAM("maroon.test.json_hist",
                                  (std::vector<double>{0.5, 1.0}));
  h->Record(0.4);
  h->Record(0.9);
  auto parsed = ParseJson(MetricsRegistry::Global().SnapshotJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* counter =
      parsed->Find("counters")->Find("maroon.test.json_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->number_value, 7.0);
  const JsonValue* gauge =
      parsed->Find("gauges")->Find("maroon.test.json_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->number_value, 0.25);
  const JsonValue* hist =
      parsed->Find("histograms")->Find("maroon.test.json_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number_value, 2.0);
  ASSERT_EQ(hist->Find("counts")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(hist->Find("counts")->array[0].number_value, 1.0);
  EXPECT_DOUBLE_EQ(hist->Find("counts")->array[1].number_value, 1.0);
  EXPECT_DOUBLE_EQ(hist->Find("mean")->number_value, 0.65);
}

}  // namespace
}  // namespace obs
}  // namespace maroon
