#ifndef MAROON_OBS_METRICS_H_
#define MAROON_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/histogram.h"

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
/// atomics, and histograms (obs/histogram.h) record with one relaxed bucket
/// increment plus CAS loops for sum/min/max.
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
  /// metric kind trips MAROON_CHECK.
  Counter* GetCounter(const std::string& name) MAROON_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) MAROON_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name) MAROON_EXCLUDES(mu_);

  struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot TakeSnapshot() const MAROON_EXCLUDES(mu_);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {"count": ...,
  ///  "sum": ..., "min": ..., "max": ..., "mean": ..., "p50": ...,
  ///  "p90": ..., "p95": ..., "p99": ..., "p999": ...}}}
  ///
  /// Histograms serialize as their percentile digest, not their ~2800 raw
  /// buckets; use TakeSnapshot() for bucket-level access.
  std::string SnapshotJson() const;

  /// Zeroes every registered metric (names stay registered). Tests and the
  /// CLI use this to scope metrics to one run.
  void ResetAll() MAROON_EXCLUDES(mu_);

 private:
  MetricsRegistry() = default;

  /// Guards the maps, not the metric values: the pointed-to metrics are
  /// atomics of their own, so readers holding a cached metric pointer never
  /// touch mu_.

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      MAROON_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      MAROON_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
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
/// MetricsRegistry::Global().GetX(...) directly.
#define MAROON_METRIC_SITE_(Type, lookup)                \
  ([]() -> ::maroon::obs::Type* {                        \
    static ::maroon::obs::Type* const metric_at_site =   \
        ::maroon::obs::MetricsRegistry::Global().lookup; \
    return metric_at_site;                               \
  }())
#define MAROON_COUNTER(name) MAROON_METRIC_SITE_(Counter, GetCounter("" name))
#define MAROON_GAUGE(name) MAROON_METRIC_SITE_(Gauge, GetGauge("" name))
#define MAROON_HISTOGRAM(name) \
  MAROON_METRIC_SITE_(Histogram, GetHistogram("" name))

#endif  // MAROON_OBS_METRICS_H_
