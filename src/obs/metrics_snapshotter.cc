#include "obs/metrics_snapshotter.h"

#include <algorithm>
#include <mutex>  // std::call_once
#include <utility>

#include "common/clock.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace maroon {
namespace obs {

MetricsSnapshotWriter::MetricsSnapshotWriter(
    const MetricsSnapshotWriterOptions& options)
    : start_(std::chrono::steady_clock::now()),
      out_(options.path, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    status_ = Status::IOError("cannot open " + options.path + " for writing");
  }
  const double period_s = std::max(options.period_s, 0.01);
  timer_ = std::make_unique<PeriodicTimer>(
      std::chrono::milliseconds(static_cast<int64_t>(period_s * 1000.0)),
      [this] { WriteRow(); });
}

MetricsSnapshotWriter::~MetricsSnapshotWriter() { Stop(); }

void MetricsSnapshotWriter::Stop() {
  // call_once, not a guarded bool: with the old check-then-act flag, a
  // destructor racing an explicit Stop() from another thread could both
  // pass the "already stopped?" test and write the final row twice.
  std::call_once(stop_once_, [this] {
    timer_->Stop();  // joins; no WriteRow is in flight afterwards
    WriteRow();      // closing state, so short runs still get one row
    out_.flush();
    if (!out_) {
      MutexLock lock(&mu_);
      if (status_.ok()) {
        status_ = Status::IOError("failed writing metrics snapshot file");
      }
    }
  });
}

int64_t MetricsSnapshotWriter::rows_written() const {
  MutexLock lock(&mu_);
  return rows_written_;
}

Status MetricsSnapshotWriter::status() const {
  MutexLock lock(&mu_);
  return status_;
}

void MetricsSnapshotWriter::WriteRow() {
  int64_t seq = 0;
  {
    MutexLock lock(&mu_);
    if (!status_.ok()) return;
    seq = rows_written_;
  }
  // Snapshot, serialize, and append all outside mu_: the registry can be
  // slow and the stream append blocks, and WriteRow invocations never
  // overlap (see the header's out_ contract) — only the status/row-count
  // bookkeeping needs the lock.
  const double t_s = SecondsSince(start_);
  const std::string metrics = MetricsRegistry::Global().SnapshotJson();

  JsonWriter head;
  head.BeginObject();
  head.Key("schema").String("maroon_metrics_snapshot_v2");
  head.Key("seq").Int(seq);
  head.Key("t_s").Number(t_s);
  // Splice the registry's own JSON in verbatim rather than re-serializing,
  // matching BuildRunReportJson.
  std::string row = head.text();
  row += ", \"metrics\": ";
  row += metrics;
  row += "}\n";
  out_ << row;
  out_.flush();

  MutexLock lock(&mu_);
  if (!out_) {
    if (status_.ok()) {
      status_ = Status::IOError("failed writing metrics snapshot row");
    }
    return;
  }
  ++rows_written_;
}

}  // namespace obs
}  // namespace maroon
