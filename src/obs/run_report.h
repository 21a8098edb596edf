#ifndef MAROON_OBS_RUN_REPORT_H_
#define MAROON_OBS_RUN_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace maroon {
namespace obs {

/// End-of-run summary: a snapshot of the global metrics registry and tracer
/// plus the run's configuration, emitted as JSON (machines) or a table
/// (humans). Schema `maroon_run_report_v2`:
///
///   {
///     "schema": "maroon_run_report_v2",
///     "generated_at": "2015-06-04T12:00:00Z",   // "" when suppressed
///     "config": {"command": "link", "data": "corpus/", ...},
///     "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
///     "trace": {"enabled": true, "span_count": 42,
///               "root_span_seconds": 1.25}
///   }
///
/// The metrics object is MetricsRegistry::SnapshotJson()'s layout; see
/// docs/observability.md for the documented schema and metric inventory.
struct RunReportOptions {
  /// Ordered key/value pairs for the "config" object (command line, dataset
  /// path, thresholds, ...).
  std::vector<std::pair<std::string, std::string>> config;
  /// Suppress the wall-clock "generated_at" stamp — golden-file tests need
  /// byte-identical output.
  bool include_timestamp = true;
};

/// The JSON report (schema above), from the global registry and tracer.
std::string BuildRunReportJson(const RunReportOptions& options = {});

/// A human-readable summary table of the same snapshot: config, non-zero
/// counters, gauges, histogram digests (count, mean, p50..p999 and max, in
/// the recorded unit), and trace totals.
std::string RenderRunReportText(const RunReportOptions& options = {});

/// Writes `content` to `path` atomically enough for CLI use (truncate +
/// flush + close, IOError on failure).
Status WriteTextFile(const std::string& path, const std::string& content);

/// The current UTC wall time as "YYYY-MM-DDTHH:MM:SSZ".
std::string Iso8601UtcNow();

}  // namespace obs
}  // namespace maroon

#endif  // MAROON_OBS_RUN_REPORT_H_
