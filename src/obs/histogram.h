#ifndef MAROON_OBS_HISTOGRAM_H_
#define MAROON_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace maroon {
namespace obs {

/// Linear interpolation percentile of an ascending-sorted sample vector:
/// q in [0, 1], rank r = q * (n - 1) between samples. Returns 0 on empty
/// input. Shared by the benches (exact percentiles over raw per-entity
/// latencies) and tests (reference values for the histogram's estimates).
double PercentileOfSorted(const std::vector<double>& sorted, double q);

/// A point-in-time copy of a Histogram's state.
///
/// Percentiles are estimated from the log-spaced buckets: the documented
/// error bound is the relative half-width of one bucket, <= 100 / 128 %
/// (see Histogram). Estimates are additionally clamped to the observed
/// [min, max], so a single-sample histogram reports every percentile
/// exactly.
struct HistogramSnapshot {
  /// Per-bucket counts; bucket layout is Histogram's (use
  /// Histogram::BucketUpperBound for the bounds). The last entry counts
  /// overflow samples (> kMaxValue).
  std::vector<int64_t> counts;
  /// The sum of `counts`, so every cumulative bucket count is <= count.
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;

  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Estimated value at quantile `q` in [0, 1]; 0 when empty.
  double Percentile(double q) const;

  double P50() const { return Percentile(0.50); }
  double P90() const { return Percentile(0.90); }
  double P95() const { return Percentile(0.95); }
  double P99() const { return Percentile(0.99); }
  double P999() const { return Percentile(0.999); }

  /// Number of recorded samples <= `value` (cumulative bucket count, by
  /// bucket upper bound). Feeds the Prometheus `_bucket{le=...}` series.
  int64_t CountAtOrBelow(double value) const;
};

/// The one histogram type: log-bucketed (HDR-histogram style), for
/// latencies in seconds and for the Eq. 11 / Eq. 15 scores in [0, 1] alike.
///
/// Layout: values are clamped to [kMinValue, kMaxValue] and bucketed by
/// binary exponent with kSubBuckets linear sub-buckets per octave, so
/// bucket width is at most 1/kSubBuckets of the value — a relative
/// quantile error of at most 100 / (2 * kSubBuckets) percent (~0.8% at 64
/// sub-buckets, within the documented 1% bound). Samples above kMaxValue
/// land in a dedicated overflow bucket and saturate the percentile estimate
/// at the observed max.
///
/// The record path is lock-free: one relaxed fetch_add on the bucket
/// counter plus CAS loops for sum/min/max — safe to call from every pool
/// worker at per-record granularity. Relaxed ordering is sound because each
/// counter is an independent statistic (this file is on lint rule R014's
/// relaxed-atomics allowlist; see docs/threading-model.md). Snapshot() is
/// not atomic with respect to concurrent Record() calls: a snapshot taken
/// mid-record can be ahead or behind by the in-flight samples. Its count is
/// the sum of the bucket counts it read, so the buckets and the count
/// always agree (a scrape stays cumulative); sum/min/max may lag by the
/// in-flight samples, which is fine for monitoring output.
class Histogram {
 public:
  static constexpr int kSubBuckets = 64;    // per octave
  static constexpr int kMinExponent = -30;  // 2^-30 ~ 0.93e-9
  static constexpr int kMaxExponent = 14;   // 2^14 = 16384
  static constexpr int kOctaves = kMaxExponent - kMinExponent;
  static constexpr int kNumBuckets = kOctaves * kSubBuckets;
  static constexpr double kMinValue = 9.313225746154785e-10;  // 2^-30
  static constexpr double kMaxValue = 16384.0;                // 2^14

  Histogram();

  /// Records one sample. Lock-free; negative and non-finite values are
  /// dropped. No-op while the metrics registry is disabled.
  void Record(double value);

  HistogramSnapshot Snapshot() const;
  void Reset();

  /// Bucket index for a value (clamped; kNumBuckets = overflow). Exposed
  /// for tests.
  static int BucketIndex(double value);
  /// Inclusive upper bound of bucket `index`; the overflow bucket reports
  /// kMaxValue.
  static double BucketUpperBound(int index);

 private:
  // +1 overflow bucket. ~22 KB per histogram; registered once per name.
  std::array<std::atomic<int64_t>, kNumBuckets + 1> counts_;
  std::atomic<double> sum_{0.0};
  /// +/-infinity sentinels until the first sample; Snapshot() reports 0
  /// for a sentinel still in place.
  std::atomic<double> min_;
  std::atomic<double> max_;
};

}  // namespace obs
}  // namespace maroon

#endif  // MAROON_OBS_HISTOGRAM_H_
