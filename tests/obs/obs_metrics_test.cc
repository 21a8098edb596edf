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

TEST_F(MetricsTest, HistogramResetZeroesStateButKeepsBounds) {
  Histogram h;
  h.Record(0.5);
  h.Reset();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  // The bucket layout is the type's own and survives the reset.
  EXPECT_EQ(s.counts.size(), static_cast<size_t>(Histogram::kNumBuckets + 1));
  h.Record(0.5);
  EXPECT_EQ(h.Snapshot().count, 1);
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
  Histogram h;
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
  EXPECT_EQ(s.CountAtOrBelow(0.5), kThreads / 2 * kPerThread);
  EXPECT_EQ(s.CountAtOrBelow(1.0), s.count);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 0.75);
}

TEST_F(MetricsTest, RegistryReturnsStablePointersPerName) {
  Counter* a = MAROON_COUNTER("maroon.test.stable");
  Counter* b = MAROON_COUNTER("maroon.test.stable");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, MAROON_COUNTER("maroon.test.other"));
  Histogram* h1 = MAROON_HISTOGRAM("maroon.test.hist");
  Histogram* h2 = MAROON_HISTOGRAM("maroon.test.hist");
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1, MetricsRegistry::Global().GetHistogram("maroon.test.hist"));
}

TEST_F(MetricsTest, DisabledRegistryDropsMutations) {
  Counter* c = MAROON_COUNTER("maroon.test.disabled");
  Gauge* g = MAROON_GAUGE("maroon.test.disabled_gauge");
  Histogram* h = MAROON_HISTOGRAM("maroon.test.disabled_hist");
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
  Histogram* h = MAROON_HISTOGRAM("maroon.test.reset_hist");
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
  Histogram* h = MAROON_HISTOGRAM("maroon.test.json_hist");
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
  EXPECT_DOUBLE_EQ(hist->Find("mean")->number_value, 0.65);
  EXPECT_DOUBLE_EQ(hist->Find("min")->number_value, 0.4);
  EXPECT_DOUBLE_EQ(hist->Find("max")->number_value, 0.9);
  // The percentile digest, not the raw buckets.
  for (const char* key : {"p50", "p90", "p95", "p99", "p999"}) {
    EXPECT_NE(hist->Find(key), nullptr) << key;
  }
  EXPECT_EQ(hist->Find("counts"), nullptr);
  // One object per metric kind: counters, gauges, histograms.
  EXPECT_EQ(parsed->object.size(), 3u);
}

}  // namespace
}  // namespace obs
}  // namespace maroon
