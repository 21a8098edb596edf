#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"

namespace maroon {
namespace obs {

double PercentileOfSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, nearest-rank method).
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil(q * static_cast<double>(count))));
  int64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // Midpoint of the bucket, clamped to the exact observed range so
      // single-sample and all-overflow histograms report exact values. A
      // snapshot racing Record() can read min and max from different
      // samples; the clamp is skipped then rather than inverted.
      const int index = static_cast<int>(i);
      const double upper = Histogram::BucketUpperBound(index);
      const double lower =
          index == 0 ? 0.0 : Histogram::BucketUpperBound(index - 1);
      const double mid = 0.5 * (lower + upper);
      return min <= max ? std::clamp(mid, min, max) : mid;
    }
  }
  return max;
}

int64_t HistogramSnapshot::CountAtOrBelow(double value) const {
  // Overflow samples exceed kMaxValue by definition, so they are only
  // covered by the le="+Inf" series (use `count` for that).
  int64_t total = 0;
  const int regular =
      std::min(static_cast<int>(counts.size()), Histogram::kNumBuckets);
  for (int i = 0; i < regular; ++i) {
    if (Histogram::BucketUpperBound(i) > value) break;
    total += counts[static_cast<size_t>(i)];
  }
  return total;
}

Histogram::Histogram()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

int Histogram::BucketIndex(double value) {
  if (!(value > 0.0)) return 0;
  if (value >= kMaxValue) return kNumBuckets;  // overflow bucket
  if (value < kMinValue) return 0;
  int exp = 0;
  // value = m * 2^exp with m in [0.5, 1) => value lives in the octave
  // [2^(exp-1), 2^exp).
  const double m = std::frexp(value, &exp);
  const int octave = (exp - 1) - kMinExponent;
  // m*2 in [1, 2): linear sub-bucket within the octave.
  const int sub = std::min(
      kSubBuckets - 1,
      static_cast<int>((m * 2.0 - 1.0) * static_cast<double>(kSubBuckets)));
  const int index = octave * kSubBuckets + sub;
  return std::clamp(index, 0, kNumBuckets - 1);
}

double Histogram::BucketUpperBound(int index) {
  if (index >= kNumBuckets) return kMaxValue;
  index = std::max(index, 0);
  const int octave = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  const double base = std::ldexp(1.0, kMinExponent + octave);
  return base * (1.0 + static_cast<double>(sub + 1) /
                           static_cast<double>(kSubBuckets));
}

void Histogram::Record(double value) {
  if (!MetricsRegistry::Enabled()) return;
  if (!std::isfinite(value) || value < 0.0) return;
  counts_[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
  expected = min_.load(std::memory_order_relaxed);
  while (value < expected &&
         !min_.compare_exchange_weak(expected, value,
                                     std::memory_order_relaxed)) {
  }
  expected = max_.load(std::memory_order_relaxed);
  while (value > expected &&
         !max_.compare_exchange_weak(expected, value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.counts.resize(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    snapshot.counts[i] = counts_[i].load(std::memory_order_relaxed);
    // Counting in the same pass as the buckets keeps every cumulative
    // rung <= count (le="+Inf") even while Record() runs concurrently.
    snapshot.count += snapshot.counts[i];
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.min = min_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  // Empty, or the first sample's min/max are still in flight.
  if (snapshot.count == 0 || !std::isfinite(snapshot.min)) snapshot.min = 0.0;
  if (snapshot.count == 0 || !std::isfinite(snapshot.max)) snapshot.max = 0.0;
  return snapshot;
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace maroon
