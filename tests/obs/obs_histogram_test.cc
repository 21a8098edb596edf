#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"

namespace maroon {
namespace obs {
namespace {

/// The documented relative error bound of the percentile estimate: half a
/// sub-bucket, i.e. 1 / (2 * kSubBuckets) (~0.78%), comfortably inside the
/// advertised 1%.
constexpr double kRelativeErrorBound =
    1.0 / (2.0 * Histogram::kSubBuckets);

/// Tests of obs::Histogram with the metrics registry enabled.
class HistogramSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::SetEnabled(true); }
  void TearDown() override { MetricsRegistry::SetEnabled(true); }
};

TEST_F(HistogramSnapshotTest, EmptySnapshotIsAllZero) {
  Histogram h;
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.P50(), 0.0);
  EXPECT_DOUBLE_EQ(s.P999(), 0.0);
  EXPECT_EQ(s.CountAtOrBelow(1.0), 0);
}

TEST_F(HistogramSnapshotTest, SingleSampleReportsExactPercentiles) {
  Histogram h;
  h.Record(0.0042);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.sum, 0.0042);
  EXPECT_DOUBLE_EQ(s.min, 0.0042);
  EXPECT_DOUBLE_EQ(s.max, 0.0042);
  // The [min, max] clamp makes every percentile exact for one sample.
  EXPECT_DOUBLE_EQ(s.P50(), 0.0042);
  EXPECT_DOUBLE_EQ(s.P99(), 0.0042);
  EXPECT_DOUBLE_EQ(s.P999(), 0.0042);
}

TEST_F(HistogramSnapshotTest, DropsNegativeAndNonFiniteSamples) {
  Histogram h;
  h.Record(-1.0);
  h.Record(std::nan(""));
  h.Record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.Snapshot().count, 0);
  h.Record(0.0);  // zero is valid (clamps into the first bucket)
  EXPECT_EQ(h.Snapshot().count, 1);
}

TEST_F(HistogramSnapshotTest, AllOverflowSamplesReportObservedMax) {
  Histogram h;
  h.Record(Histogram::kMaxValue * 2);
  h.Record(Histogram::kMaxValue * 4);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 2);
  EXPECT_DOUBLE_EQ(s.max, Histogram::kMaxValue * 4);
  // The percentile walk lands in the overflow bucket, whose midpoint sits
  // below every overflow sample; the [min, max] clamp pulls the estimate up
  // to the smallest observed overflow value instead of the bucket bound.
  EXPECT_DOUBLE_EQ(s.P99(), Histogram::kMaxValue * 2);
  // Overflow samples are not <= any finite bound...
  EXPECT_EQ(s.CountAtOrBelow(Histogram::kMaxValue), 0);
  // ...only the count (the +Inf bucket) covers them.
  EXPECT_EQ(s.count, 2);
}

TEST_F(HistogramSnapshotTest, BucketIndexIsMonotoneAndBoundsAreConsistent) {
  int last = -1;
  for (double v = 1e-9; v < 20000.0; v *= 1.07) {
    const int index = Histogram::BucketIndex(v);
    EXPECT_GE(index, last) << "at v=" << v;
    last = index;
    if (index < Histogram::kNumBuckets) {
      // The value must not exceed its bucket's inclusive upper bound.
      EXPECT_LE(v, Histogram::BucketUpperBound(index) * (1 + 1e-12))
          << "at v=" << v;
    }
  }
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(Histogram::kMaxValue),
            Histogram::kNumBuckets);
}

TEST_F(HistogramSnapshotTest, UniformSamplesStayWithinErrorBound) {
  Histogram h;
  std::vector<double> samples;
  Random rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Uniform over [1ms, 101ms].
    const double v = 0.001 + 0.1 * rng.UniformDouble();
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot s = h.Snapshot();
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = PercentileOfSorted(samples, q);
    const double estimate = s.Percentile(q);
    EXPECT_NEAR(estimate, exact, exact * (kRelativeErrorBound + 1e-3))
        << "q=" << q;
  }
}

TEST_F(HistogramSnapshotTest, ExponentialSamplesStayWithinErrorBound) {
  Histogram h;
  std::vector<double> samples;
  Random rng(13);
  for (int i = 0; i < 20000; ++i) {
    // Exponential with a 2ms mean — a long-tailed latency shape.
    const double u = std::max(rng.UniformDouble(), 1e-12);
    const double v = -0.002 * std::log(u);
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  const HistogramSnapshot s = h.Snapshot();
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = PercentileOfSorted(samples, q);
    const double estimate = s.Percentile(q);
    EXPECT_NEAR(estimate, exact, exact * (kRelativeErrorBound + 1e-3))
        << "q=" << q;
  }
}

TEST_F(HistogramSnapshotTest, SumMinMaxAreExact) {
  Histogram h;
  h.Record(0.010);
  h.Record(0.001);
  h.Record(0.100);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 3);
  EXPECT_NEAR(s.sum, 0.111, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 0.001);
  EXPECT_DOUBLE_EQ(s.max, 0.100);
  EXPECT_NEAR(s.Mean(), 0.037, 1e-12);
}

TEST_F(HistogramSnapshotTest, CountAtOrBelowIsCumulative) {
  Histogram h;
  h.Record(0.0001);
  h.Record(0.001);
  h.Record(0.01);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.CountAtOrBelow(1e-5), 0);
  EXPECT_EQ(s.CountAtOrBelow(0.0005), 1);
  EXPECT_EQ(s.CountAtOrBelow(0.005), 2);
  EXPECT_EQ(s.CountAtOrBelow(1.0), 3);
}

TEST_F(HistogramSnapshotTest, ResetClearsEverything) {
  Histogram h;
  h.Record(0.5);
  h.Reset();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  // And it keeps recording correctly afterwards.
  h.Record(0.25);
  EXPECT_DOUBLE_EQ(h.Snapshot().min, 0.25);
}

TEST_F(HistogramSnapshotTest, DisabledRegistryDropsRecords) {
  Histogram h;
  MetricsRegistry::SetEnabled(false);
  h.Record(0.5);
  MetricsRegistry::SetEnabled(true);
  EXPECT_EQ(h.Snapshot().count, 0);
}

TEST_F(HistogramSnapshotTest, ConcurrentRecordsLoseNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, kThreads, [&h](int /*strand*/, size_t i) {
    for (int k = 0; k < kPerThread; ++k) {
      h.Record(0.001 * static_cast<double>(i + 1));
    }
  });
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(s.min, 0.001);
  EXPECT_DOUBLE_EQ(s.max, 0.004);
  const double expected_sum =
      kPerThread * (0.001 + 0.002 + 0.003 + 0.004);
  EXPECT_NEAR(s.sum, expected_sum, expected_sum * 1e-9);
  int64_t bucket_total = 0;
  for (const int64_t c : s.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(PercentileOfSortedTest, InterpolatesAndHandlesEdges) {
  EXPECT_DOUBLE_EQ(PercentileOfSorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted({3.0}, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted({3.0}, 1.0), 3.0);
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.25), 2.0);
  // Interpolated rank: q=0.1 over 5 samples is rank 0.4 -> 1.4.
  EXPECT_DOUBLE_EQ(PercentileOfSorted(v, 0.1), 1.4);
}

TEST_F(HistogramSnapshotTest, RegistrySnapshotJsonCarriesPercentileDigest) {
  MetricsRegistry::Global().ResetAll();
  MAROON_HISTOGRAM("maroon.test.latency_digest")->Record(0.002);
  MAROON_HISTOGRAM("maroon.test.latency_digest")->Record(0.004);
  const std::string json = MetricsRegistry::Global().SnapshotJson();
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"maroon.test.latency_digest\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos) << json;
  MetricsRegistry::Global().ResetAll();
}

TEST(HistogramTest, ScrapeRacingRecordStaysCumulative) {
  // A /metrics scrape snapshots while pool workers record. The snapshot's
  // count must cover every bucket it read, or the top rung exceeds
  // le="+Inf" and the exposition stops being cumulative.
  MetricsRegistry::SetEnabled(true);
  Histogram h;
  std::atomic<bool> stop{false};
  std::thread recorder([&h, &stop] {  // maroon-lint: allow(R008)
    while (!stop.load(std::memory_order_acquire)) h.Record(0.001);
  });
  while (h.Snapshot().count == 0) std::this_thread::yield();
  int failed_renders = 0;
  std::string first_problem;
  for (int i = 0; i < 2000; ++i) {
    MetricsRegistry::Snapshot snapshot;
    snapshot.histograms["maroon.test.race_seconds"] = h.Snapshot();
    const std::vector<std::string> problems =
        PrometheusLint(PrometheusText(snapshot));
    if (!problems.empty()) {
      if (failed_renders++ == 0) first_problem = problems.front();
    }
  }
  stop.store(true, std::memory_order_release);
  recorder.join();  // maroon-lint: allow(R008)
  EXPECT_EQ(failed_renders, 0) << "first: " << first_problem;
  EXPECT_GT(h.Snapshot().count, 0);
}

}  // namespace
}  // namespace obs
}  // namespace maroon
