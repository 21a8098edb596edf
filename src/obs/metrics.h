#ifndef MAROON_OBS_METRICS_H_
#define MAROON_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/latency_histogram.h"

namespace maroon {
namespace obs {

/// Process-wide metrics for the MAROON pipeline.
///
/// Naming convention: `maroon.<subsystem>.<name>`, e.g.
/// `maroon.phase1.clusters_formed` (see docs/observability.md for the full
/// inventory). Metrics are registered lazily on first use and live for the
/// process lifetime. The MAROON_* macros below cache the pointer per call
/// site, so instrumentation sites use them inline:
///
///   MAROON_COUNTER("maroon.phase1.clusters_formed")->Add(clusters.size());
///
/// The fast path is lock-free: counters and gauges are single relaxed
/// atomics; histograms serialize on a per-histogram mutex (observations are
/// infrequent — per cluster or per iteration, never per record pair).
/// `MetricsRegistry::SetEnabled(false)` (or env MAROON_METRICS=off) turns
/// every mutation into a cheap early return, which is how the
/// instrumentation-overhead benchmark measures the cost of the layer.

/// A monotonically increasing counter.
class Counter {
 public:
  void Add(int64_t delta = 1);
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A last-value-wins gauge.
class Gauge {
 public:
  void Set(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A point-in-time copy of a histogram's state.
struct HistogramSnapshot {
  /// Ascending upper bounds; bucket i counts observations v <= bounds[i]
  /// (and > bounds[i-1]). counts.back() is the overflow bucket
  /// (v > bounds.back()), so counts.size() == bounds.size() + 1.
  std::vector<double> bounds;
  std::vector<int64_t> counts;
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;

  double Mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// A fixed-bucket histogram. Bounds are set at registration and immutable.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  const std::vector<double> bounds_;
  mutable Mutex mu_;
  /// bounds_.size() + 1 slots: the last is the overflow bucket.
  std::vector<int64_t> counts_ MAROON_GUARDED_BY(mu_);
  int64_t count_ MAROON_GUARDED_BY(mu_) = 0;
  double sum_ MAROON_GUARDED_BY(mu_) = 0.0;
  double min_ MAROON_GUARDED_BY(mu_) = 0.0;
  double max_ MAROON_GUARDED_BY(mu_) = 0.0;
};

/// Canonical bucket sets. Scores and confidences from Eq. 11/15 live in
/// [0, 1]; latencies are exponential from 10µs to ~10s.
std::vector<double> UnitIntervalBuckets();    // 0.05, 0.10, ..., 1.00
std::vector<double> LatencySecondsBuckets();  // 1e-5 * 4^k, k = 0..10
std::vector<double> SmallCountBuckets();      // 1, 2, 4, 8, ..., 1024

/// --- build identity ------------------------------------------------------
/// The binary's version and git-describe string (from the generated
/// maroon/version_info.h), exposed here so the obs layer can stamp exports
/// without every caller including the generated header.
std::string BuildVersion();
std::string BuildRevision();

/// Seconds since this process first touched the obs layer (steady clock).
double ProcessUptimeSeconds();

/// Registers the self-identification metrics — the `maroon.build_info`
/// gauge (value 1; the Prometheus exporter attaches version/revision
/// labels) and the `maroon.uptime_seconds` gauge, which every subsequent
/// TakeSnapshot() refreshes. Idempotent; long-lived entry points (the CLI,
/// the ops server, benches) call it once at startup. Deliberately opt-in so
/// unit tests see exactly the metrics they created.
void RegisterBuildMetrics();

/// True once RegisterBuildMetrics() has run.
bool BuildMetricsRegistered();

/// The process-wide named-metric registry.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Mutations are dropped while disabled. Defaults to enabled unless the
  /// MAROON_METRICS environment variable is "0", "off", or "false" at first
  /// use.
  static void SetEnabled(bool enabled);
  static bool Enabled();

  /// Lazily registers and returns the named metric. Pointers stay valid for
  /// the registry's lifetime. Registering an existing name with a different
  /// metric kind trips MAROON_CHECK; GetHistogram ignores `bounds` when the
  /// name already exists.
  Counter* GetCounter(const std::string& name) MAROON_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) MAROON_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds)
      MAROON_EXCLUDES(mu_);
  /// Log-bucketed latency histogram with a lock-free record path — the
  /// right kind for per-record / per-entity latencies (the mutexed
  /// fixed-bucket Histogram stays for coarse-grained scores and sizes).
  LatencyHistogram* GetLatencyHistogram(const std::string& name)
      MAROON_EXCLUDES(mu_);

  struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
    std::map<std::string, LatencyHistogramSnapshot> latency_histograms;
  };
  Snapshot TakeSnapshot() const MAROON_EXCLUDES(mu_);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {"count": ...,
  ///  "sum": ..., "min": ..., "max": ..., "mean": ..., "bounds": [...],
  ///  "counts": [...]}}, "latency_histograms": {name: {"count": ...,
  ///  "sum": ..., "min": ..., "max": ..., "mean": ..., "p50": ...,
  ///  "p90": ..., "p95": ..., "p99": ..., "p999": ...}}}
  ///
  /// Latency histograms serialize as their percentile digest, not their
  /// ~2800 raw buckets; use TakeSnapshot() for bucket-level access.
  std::string SnapshotJson() const;

  /// Zeroes every registered metric (names stay registered). Tests and the
  /// CLI use this to scope metrics to one run.
  void ResetAll() MAROON_EXCLUDES(mu_);

 private:
  MetricsRegistry() = default;

  /// Guards the maps, not the metric values: the pointed-to metrics have
  /// their own synchronization (atomics or a per-histogram mutex), so
  /// readers holding a cached Counter*/Gauge* never touch mu_.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      MAROON_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      MAROON_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      MAROON_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> latency_histograms_
      MAROON_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace maroon

/// Registration shorthands for instrumentation sites. Each expansion caches
/// the metric pointer in a function-local static of its own, so the registry
/// lock is taken once per call site, not once per event; that is safe because
/// pointers stay valid for the process lifetime (ResetAll() zeroes values,
/// it never unregisters). `name` must be a string literal (the `"" name`
/// concatenation rejects anything else at compile time) so that one site can
/// never stand for more than one metric; dynamic names go through
/// MetricsRegistry::Global().GetX(...) directly. MAROON_HISTOGRAM's `bounds`
/// are evaluated on a site's first use only.
#define MAROON_METRIC_SITE_(Type, lookup)                \
  ([]() -> ::maroon::obs::Type* {                        \
    static ::maroon::obs::Type* const metric_at_site =   \
        ::maroon::obs::MetricsRegistry::Global().lookup; \
    return metric_at_site;                               \
  }())
#define MAROON_COUNTER(name) MAROON_METRIC_SITE_(Counter, GetCounter("" name))
#define MAROON_GAUGE(name) MAROON_METRIC_SITE_(Gauge, GetGauge("" name))
#define MAROON_HISTOGRAM(name, bounds) \
  MAROON_METRIC_SITE_(Histogram, GetHistogram("" name, bounds))
#define MAROON_LATENCY(name) \
  MAROON_METRIC_SITE_(LatencyHistogram, GetLatencyHistogram("" name))

#endif  // MAROON_OBS_METRICS_H_
