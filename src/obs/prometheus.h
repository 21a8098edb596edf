#ifndef MAROON_OBS_PROMETHEUS_H_
#define MAROON_OBS_PROMETHEUS_H_

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace maroon {
namespace obs {

/// Prometheus text exposition (format version 0.0.4) for the metrics
/// registry — the scrape surface for a future `maroon_cli serve` mode, and
/// already writable per run via `maroon_cli --metrics-prom-out=FILE`.
///
/// Mapping:
///  - metric names: dots become underscores (`maroon.phase1.confidence`
///    -> `maroon_phase1_confidence`); every series gets `# TYPE` and
///    `# HELP` headers;
///  - counters / gauges: one sample line each;
///  - histograms: cumulative `name_bucket{le="<bound>"}` series over the
///    ScrapeBucketBounds() ladder plus `le="+Inf"`, then `name_sum` and
///    `name_count` — Prometheus does not need the ~2800 fine buckets to
///    reconstruct quantiles at scrape resolution. Every family, latency or
///    [0, 1] score, shares the one ladder.
///
/// Renders from `snapshot`, so one consistent snapshot can feed both the
/// JSON and the Prometheus artifacts.
std::string PrometheusText(const MetricsRegistry::Snapshot& snapshot);

/// The `le` ladder every histogram family renders on: 1e-5 * 4^k for
/// k = 0..10 (10 us to ~10 s for latencies; a [0, 1] score fills the upper
/// rungs).
std::vector<double> ScrapeBucketBounds();

/// PrometheusText over the global registry's current snapshot.
std::string PrometheusTextFromGlobal();

/// A metric name sanitized to Prometheus conventions:
/// [a-zA-Z_:][a-zA-Z0-9_:]*; every other byte becomes '_'.
///
/// Sanitization can collide (`maroon.a.b` and `maroon.a-b` both map to
/// `maroon_a_b`); PrometheusText emits the first series and drops later
/// colliders with a `# maroon: dropped colliding series <name>` comment so
/// the exposition never carries duplicate series.
std::string PrometheusName(const std::string& name);

/// HELP text escaped per exposition format 0.0.4: `\` -> `\\`,
/// newline -> `\n`.
std::string PrometheusEscapeHelp(const std::string& text);

/// Label value escaped per exposition format 0.0.4: `\` -> `\\`,
/// `"` -> `\"`, newline -> `\n`.
std::string PrometheusEscapeLabel(const std::string& value);

/// Exporter lint: checks `text` against the exposition-format rules the
/// real Prometheus scraper enforces, returning one message per violation
/// (empty = clean). Checked: sample-line syntax, metric-name charset,
/// label syntax and escaping, `# TYPE` present before (and only once for)
/// each series, histogram `le` buckets cumulative and monotone with a
/// `+Inf` bucket equal to `_count`. Tests assert real exports lint clean;
/// the CI ops-smoke job reuses it through `maroon_cli promlint`.
std::vector<std::string> PrometheusLint(const std::string& text);

}  // namespace obs
}  // namespace maroon

#endif  // MAROON_OBS_PROMETHEUS_H_
