// Measurement plumbing shared by the benchmark's workloads: sample sets with
// honest percentiles, layer timings that double as obs::Tracer spans in a
// traced run, and the result report whose last line is the one JSON object
// a benchmark run prints.

#ifndef MAROON_PERFBENCH_HARNESS_H_
#define MAROON_PERFBENCH_HARNESS_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A set of measured values (seconds, bytes, ...).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }
  double Sum() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// Arithmetic mean; 0 when empty.
  double Mean() const { return empty() ? 0.0 : Sum() / size(); }

  /// "median=<v> p<k>=<v> n=<count>" scaled by `scale`, where p<k> is the
  /// highest of p90, p99 and p99.9 that still has at least ten samples
  /// beyond it ("tail=none" when even p90 has fewer).
  std::string Describe(double scale, const std::string& unit) const;

 private:
  std::vector<double> values_;
};

/// Steps the calling thread through the CPUs the process may run on, one
/// CPU per Next(), and gives it back its original affinity on Release().
/// The VM the benchmark was tuned on has vCPUs whose speed differs by up to
/// 1.8x from one to another at the same moment, and the kernel keeps a
/// single-threaded caller on one vCPU for seconds at a time, so a run's
/// single-threaded timings depended on the vCPUs it happened to draw.
/// Stepping through all of them makes every run sample each one alike.
/// Threads started while the caller is pinned inherit the pin, so callers
/// pin only around work that starts no thread.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { Release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU in turn.
  void Next();
  /// Restores the affinity the thread had when this object was made.
  void Release();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  bool pinned_ = false;
};

/// Times one layer call. While obs::Tracer is enabled (a traced run) the
/// call is also recorded as an obs::Span named `name`, so untraced code
/// takes its timings through the same calls.
class SpanScope {
 public:
  explicit SpanScope(const char* name)
      : span_(std::in_place, name), start_(Clock::now()) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Closes the span; returns seconds since construction, fixed at the
  /// first call.
  double Stop() {
    if (span_.has_value()) {
      seconds_ = SecondsSince(start_);
      span_.reset();
    }
    return seconds_;
  }

 private:
  std::optional<maroon::obs::Span> span_;
  Clock::time_point start_;
  double seconds_ = 0.0;
};

/// Sets whether obs::Tracer records spans for this object's lifetime, then
/// restores the previous setting.
class TracingScope {
 public:
  explicit TracingScope(bool enabled)
      : previous_(maroon::obs::Tracer::Enabled()) {
    maroon::obs::Tracer::SetEnabled(enabled);
  }
  ~TracingScope() { maroon::obs::Tracer::SetEnabled(previous_); }
  TracingScope(const TracingScope&) = delete;
  TracingScope& operator=(const TracingScope&) = delete;

 private:
  bool previous_;
};

/// Seconds recorded so far by obs::Tracer under each span name.
std::map<std::string, double> SpanSeconds();

/// Collects a run's metrics, operation counts and correctness gates, and
/// prints the result. Informational lines go to stdout prefixed with "# "
/// as they happen; the JSON result is always the last line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& line) const;
  /// Prints one sample set as an informational line.
  void Describe(const std::string& name, const Samples& samples, double scale,
                const std::string& unit) const;

  void Attempt(uint64_t count = 1) { attempted_ += count; }
  void Fail(uint64_t count = 1) { failed_ += count; }
  /// Share of attempted operations that did not fail.
  double OkRatio() const;

  /// A correctness gate: a false `ok` marks the run incorrect and counts
  /// one failed operation. A failure prints at once; PrintResult lists
  /// every gate with its pass and fail counts.
  bool Gate(const std::string& name, bool ok, const std::string& detail);
  bool correct() const { return gates_failed_ == 0; }

  /// Prints the final JSON line, restricted to `expected` metric names in
  /// that order. A missing or non-finite metric fails the run.
  void PrintResult(const std::vector<std::string>& expected);

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::pair<int, int>> gates_;  // name -> (ok, failed)
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int gates_failed_ = 0;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // MAROON_PERFBENCH_HARNESS_H_
