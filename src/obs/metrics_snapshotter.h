#ifndef MAROON_OBS_METRICS_SNAPSHOTTER_H_
#define MAROON_OBS_METRICS_SNAPSHOTTER_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>  // std::once_flag
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace maroon {
namespace obs {

/// Periodic metrics time series: while alive, appends one JSONL row with the
/// global registry's full snapshot every `period_s` seconds, so a long batch
/// run leaves behind the *trajectory* of its counters and histogram
/// percentiles, not just the end state. One row per line, schema
/// `maroon_metrics_snapshot_v2`:
///
///   {"schema": "maroon_metrics_snapshot_v2", "seq": 0, "t_s": 10.0,
///    "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}}
///
/// `t_s` is steady-clock seconds since the writer started; `seq` ascends
/// from 0. Stop() (also run by the destructor) writes one final row so the
/// series always ends with the run's closing state, even for runs shorter
/// than a period.
///
/// The ticking thread comes from maroon::PeriodicTimer — thread construction
/// stays confined to src/common/thread_pool.* (lint rule R008). I/O errors
/// don't throw: the first failure is latched into status() and later rows
/// are skipped.
struct MetricsSnapshotWriterOptions {
  std::string path;        // JSONL output file (truncated on start)
  double period_s = 10.0;  // snapshot period; clamped to >= 0.01
};

class MetricsSnapshotWriter {
 public:
  explicit MetricsSnapshotWriter(const MetricsSnapshotWriterOptions& options);
  ~MetricsSnapshotWriter();

  MetricsSnapshotWriter(const MetricsSnapshotWriter&) = delete;
  MetricsSnapshotWriter& operator=(const MetricsSnapshotWriter&) = delete;

  /// Stops the timer and writes the final row; idempotent. The output file
  /// is complete once this returns.
  void Stop();

  /// Rows successfully written so far (periodic rows plus the final one).
  int64_t rows_written() const;

  /// OK, or the first I/O error encountered.
  Status status() const;

 private:
  void WriteRow();

  const std::chrono::steady_clock::time_point start_;
  mutable Mutex mu_;
  Status status_ MAROON_GUARDED_BY(mu_);
  int64_t rows_written_ MAROON_GUARDED_BY(mu_) = 0;
  /// Deliberately NOT guarded by mu_: the stream is written only from the
  /// constructor (before the timer exists) and from WriteRow, whose
  /// invocations never overlap — the timer serializes its own ticks, and
  /// Stop() writes the final row only after joining the timer thread.
  /// Keeping the stream outside mu_ keeps blocking I/O out of every
  /// critical section (lint rule R013).
  std::ofstream out_;
  /// Stop() runs exactly once even when the destructor races an explicit
  /// Stop() call from another thread.
  std::once_flag stop_once_;
  // Last member: the timer thread may call WriteRow immediately.
  std::unique_ptr<PeriodicTimer> timer_;
};

}  // namespace obs
}  // namespace maroon

#endif  // MAROON_OBS_METRICS_SNAPSHOTTER_H_
