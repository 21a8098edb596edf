#ifndef MAROON_EVAL_BENCHDIFF_H_
#define MAROON_EVAL_BENCHDIFF_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "obs/json.h"

namespace maroon {

/// Perf-regression gate over two `maroon_bench_runtime_v1` baselines (the
/// documents tools/run_bench.sh writes). Rows are matched by identity —
/// bench name, string labels, and the identity numerics (threads, entities,
/// records) — then every timing metric (fields ending `_s` or `_ms`, except
/// `_per_s` rates) is compared; `tools/maroon_benchdiff` turns the report
/// into an exit code so run_bench.sh and CI can fail on a slowdown instead
/// of eyeballing JSON.
///
/// Gate semantics:
///  - a timing metric regresses when it grew more than `threshold_pct`
///    percent over baseline AND either side is at or above the
///    `min_seconds` noise floor (sub-floor timings jitter too much on
///    shared CI runners to gate);
///  - non-timing numerics (`overhead_pct`, `speedup_8v1`, `records_per_s`,
///    counts) are reported with their deltas but never gated;
///  - `result_hash` is skipped entirely: it fingerprints the computed
///    assignment, which legitimately changes when the algorithm does
///    (run_bench.sh separately enforces hash equality *across thread
///    widths within one run*, which is the invariant that matters);
///  - a baseline row or metric missing from the current file is an error
///    (coverage shrank); rows or metrics only in the current file are
///    listed as additions and pass.
struct BenchDiffOptions {
  /// Allowed growth, percent, before a timing metric counts as a
  /// regression (25 = current may be up to 1.25x baseline).
  double threshold_pct = 25.0;
  /// Noise floor in seconds; `_ms` metrics are converted before the check.
  double min_seconds = 0.005;
};

/// One compared metric.
struct BenchDiffEntry {
  std::string row_key;  // e.g. "fig7_runtime corpus=dblp method=MAROON"
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  /// 100 * (current - baseline) / baseline; 0 when baseline is 0.
  double delta_pct = 0.0;
  bool gated = false;      // timing metric above the noise floor
  bool regressed = false;  // gated and past threshold_pct
};

struct BenchDiffReport {
  std::vector<BenchDiffEntry> entries;
  /// Rows/metrics present only in the current file (informational).
  std::vector<std::string> additions;
  /// Missing rows/metrics, schema drift, result_hash mismatches.
  std::vector<std::string> errors;
  int regressions = 0;

  bool ok() const { return errors.empty() && regressions == 0; }
  /// Human-readable table: one line per metric, then errors and the verdict.
  std::string ToText() const;
  /// Machine-readable report, schema `maroon_benchdiff_v1`.
  std::string ToJson() const;
};

/// Diffs two parsed baseline documents. Schema problems (wrong or missing
/// "schema", "rows" not an array) land in `errors`.
BenchDiffReport DiffBenchDocuments(const obs::JsonValue& baseline,
                                   const obs::JsonValue& current,
                                   const BenchDiffOptions& options = {});

/// Loads, parses, and diffs two baseline files; IOError/ParseError when a
/// file cannot be read or is not JSON.
Result<BenchDiffReport> DiffBenchFiles(const std::string& baseline_path,
                                       const std::string& current_path,
                                       const BenchDiffOptions& options = {});

}  // namespace maroon

#endif  // MAROON_EVAL_BENCHDIFF_H_
