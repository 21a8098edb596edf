#ifndef MAROON_OBS_TRACE_H_
#define MAROON_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace maroon {
namespace obs {

/// One completed span. Times are microseconds on the steady clock, relative
/// to the tracer epoch (process start or the last Clear()).
struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double duration_us = 0.0;
  /// Small dense id per OS thread (1, 2, ...), stable within the process.
  int tid = 0;
  /// Nesting depth on its thread at the time the span opened (0 = root).
  int depth = 0;
  /// True when the span was recorded inside a PoolTaskScope: its wall time
  /// is already covered by the span of the thread that issued the parallel
  /// section, so RootSpanSeconds() skips worker roots.
  bool pool_worker = false;
};

/// A span-based tracer with Chrome trace_event JSON export
/// (chrome://tracing and https://ui.perfetto.dev load the output directly).
///
/// Tracing is off by default; a disabled MAROON_TRACE_SPAN costs one relaxed
/// atomic load. Span nesting is tracked per thread: spans opened while
/// another span is live on the same thread record a larger depth, and the
/// exported ts/dur containment lets trace viewers rebuild the hierarchy.
///
/// Span names form a dot taxonomy parallel to the metric names:
/// `cli.link` > `experiment.prepare` > `transition.train`, `link.entity` >
/// `phase1.generate` > `phase1.partition`, ... (see docs/observability.md).
class Tracer {
 public:
  static Tracer& Global();

  static void SetEnabled(bool enabled);
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops all recorded spans and restarts the epoch.
  void Clear();

  std::vector<SpanRecord> Snapshot() const;
  size_t span_count() const;

  /// {"displayTimeUnit": "ms", "traceEvents": [{"name": ..., "ph": "X",
  ///  "ts": ..., "dur": ..., "pid": 1, "tid": ...}, ...]}
  std::string ToChromeTraceJson() const;

  /// Total wall time covered by root (depth 0) spans, in seconds. Pool-task
  /// roots are excluded: they run concurrently under some caller's span, and
  /// counting them would bill the same wall time twice.
  double RootSpanSeconds() const;

  /// Called by Span; records one completed span.
  void Record(SpanRecord record);

  /// Microseconds since the epoch, on the steady clock.
  double NowMicros() const;

  /// --- /tracez ring --------------------------------------------------
  /// A fixed-size lock-free ring of the most recent completed spans, for
  /// the live ops plane. Independent of the accumulate-everything vector
  /// above: the ring stays on for an indefinitely-running `serve` process
  /// with bounded memory while full tracing stays off. Writers publish
  /// into per-slot seqlocks whose fields are all atomics (span names are
  /// string literals with process lifetime, so the ring stores the
  /// pointer); readers skip slots that are mid-write. A scrape racing the
  /// writers may miss a span — acceptable for a debugging surface.

  static constexpr size_t kRingCapacity = 256;

  static void SetRingEnabled(bool enabled);
  static bool RingEnabled() {
    return ring_enabled_.load(std::memory_order_relaxed);
  }

  /// The ring's currently-published spans, oldest first. Best effort:
  /// slots being overwritten mid-read are skipped, not blocked on.
  static std::vector<SpanRecord> RingSnapshot();

  /// Spans pushed to the ring since process start (monotonic; the ring
  /// itself only retains the last kRingCapacity of them).
  static uint64_t RingSpanCount();

 private:
  Tracer();

  static std::atomic<bool> enabled_;
  static std::atomic<bool> ring_enabled_;

  /// Epoch as steady-clock nanoseconds. Atomic rather than guarded by mu_:
  /// NowMicros() runs on every span open/close and must not serialize
  /// against Record(); Clear() simply publishes a new epoch.
  std::atomic<int64_t> epoch_ns_;
  mutable Mutex mu_;
  std::vector<SpanRecord> spans_ MAROON_GUARDED_BY(mu_);
};

/// RAII span: records [construction, destruction) on the global tracer when
/// tracing is enabled at construction. The name must outlive the span
/// (string literals always do).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double start_us_ = 0.0;
  int depth_ = 0;
  bool active_ = false;
};

/// Marks one task executed on behalf of a ThreadPool parallel section.
///
/// Spans on a pool helper thread would otherwise interleave with whatever
/// depth state the thread last held; on the caller strand they would nest
/// under the caller's open span and inherit its depth. This scope gives the
/// task a fresh per-thread root instead: the task span records at depth 0
/// with pool_worker set, spans opened inside it nest under that root, and on
/// destruction the thread's previous depth is restored exactly, so the
/// calling thread's span stack is never corrupted. Parallel call sites open
/// one at the top of each task lambda:
///
///   pool->ParallelFor(n, width, [&](int strand, size_t i) {
///     obs::PoolTaskScope task("pool.link_entity");
///     ...
///   });
class PoolTaskScope {
 public:
  /// `name` must outlive the scope (string literals always do).
  explicit PoolTaskScope(const char* name);
  ~PoolTaskScope();

  PoolTaskScope(const PoolTaskScope&) = delete;
  PoolTaskScope& operator=(const PoolTaskScope&) = delete;

 private:
  const char* name_;
  double start_us_ = 0.0;
  int saved_depth_ = 0;
  bool saved_worker_ = false;
  bool active_ = false;
};

}  // namespace obs
}  // namespace maroon

#define MAROON_TRACE_CONCAT_INNER(a, b) a##b
#define MAROON_TRACE_CONCAT(a, b) MAROON_TRACE_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope:
/// `MAROON_TRACE_SPAN("phase1.partition");`
#define MAROON_TRACE_SPAN(name)                                  \
  ::maroon::obs::Span MAROON_TRACE_CONCAT(maroon_trace_span_,    \
                                          __LINE__)(name)

#endif  // MAROON_OBS_TRACE_H_
