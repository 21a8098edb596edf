// The two measured paths every workload runs: batch linking and durable
// streaming ingest. Each is an object whose steps (a LinkAll round, an
// ingest pass) the run interleaves over the whole measured window.

#ifndef MAROON_PERFBENCH_WORKLOADS_H_
#define MAROON_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "harness.h"
#include "setup.h"

namespace perfbench {

/// Everything a path needs for one run.
struct RunContext {
  const Workload* workload = nullptr;
  /// Scratch directory inside the checkout (WAL and snapshot files).
  std::string work_dir;
  /// Names a gate whose input the run deliberately corrupts, so the
  /// benchmark's own tests can check that the gate trips; empty otherwise.
  std::string corrupt;
  const Corpus* corpus = nullptr;
  const Models* models = nullptr;
  Report* report = nullptr;
  /// A traced run: obs::Tracer records the layer spans and the per-layer
  /// probes run.
  bool traced = false;
  /// Optional extra passes of a traced run start only before this time,
  /// which keeps a traced run well inside its time limit on a slow host.
  Clock::time_point deadline = Clock::time_point::max();
};

/// True when batch linking is the workload's main path (it gets at least
/// half the time); streaming ingest is the main path otherwise. The
/// metrics-on/off and tracing-overhead ratios come from the main path.
inline bool BatchIsMain(const RunContext& ctx) {
  return ctx.workload->batch_share >= 0.5;
}

/// The batch path: LinkAll rounds on the fixed 2-wide pool. Untraced:
/// link_entities_per_s, link_f1. Traced: the per-layer batch metrics, from
/// a width-1 pass that calls each layer separately.
class BatchPath {
 public:
  /// Runs the untimed warm-up.
  explicit BatchPath(const RunContext& ctx);
  BatchPath(const BatchPath&) = delete;
  BatchPath& operator=(const BatchPath&) = delete;

  /// One timed LinkAll round over every target, with its gates.
  void Round();
  size_t rounds() const { return round_s_.size(); }
  /// Reports the path's metrics; a traced run then runs the layer passes.
  void Finish();

 private:
  const RunContext& ctx_;
  Samples round_s_;
  std::map<maroon::RecordId, maroon::EntityId> first_;
  int64_t cache_hits_ = 0;
  int64_t cache_misses_ = 0;
};

/// The streaming path: durable ingest passes, with /metrics scraped over
/// loopback, each followed by whole-WAL recoveries. Untraced: the ingest_*
/// metrics and recover_s. Traced: the store, WAL, snapshot, ops and net
/// per-layer metrics.
class StreamPath {
 public:
  /// Applies the stream to a standalone store (the reference every pass
  /// must reproduce) and reports ingest_f1.
  explicit StreamPath(const RunContext& ctx);
  ~StreamPath();
  StreamPath(const StreamPath&) = delete;
  StreamPath& operator=(const StreamPath&) = delete;

  /// One step of an untraced pass: the ingest, or one of the recoveries
  /// that follow it.
  void Step();
  /// True between a pass's ingest and its last recovery.
  bool mid_pass() const;
  /// True once an ingest could not start its linker or server.
  bool broken() const;
  /// One whole pass; `traced` records its spans and keeps it out of the
  /// end-to-end metrics.
  void Pass(bool traced);
  /// Untraced passes completed.
  size_t passes() const { return pass_wall_s_.size(); }
  /// Reports the path's metrics; a traced run then runs the layer probes.
  void Finish();

 private:
  struct State;
  const RunContext& ctx_;
  std::unique_ptr<State> state_;
  Samples pass_wall_s_;
};

/// True when `name` matches ctx.corrupt.
inline bool Corrupt(const RunContext& ctx, const char* name) {
  return ctx.corrupt == name;
}

}  // namespace perfbench

#endif  // MAROON_PERFBENCH_WORKLOADS_H_
