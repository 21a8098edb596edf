#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "obs/json.h"
#include "obs/latency_histogram.h"

namespace perfbench {

double Samples::Sum() const {
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum;
}

double Samples::Quantile(double q) const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return maroon::obs::PercentileOfSorted(sorted, q);
}

std::string Samples::Describe(double scale, const std::string& unit) const {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "median=%.6g%s", Median() * scale,
                unit.c_str());
  std::string out = buffer;
  // The highest standard percentile with at least ten samples above it;
  // a tail read off fewer samples would be a guess.
  const struct {
    const char* label;
    double q;
  } tails[] = {{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}};
  bool found = false;
  for (const auto& tail : tails) {
    const double beyond = (1.0 - tail.q) * static_cast<double>(size());
    if (beyond >= 10.0) {
      std::snprintf(buffer, sizeof(buffer), " %s=%.6g%s", tail.label,
                    Quantile(tail.q) * scale, unit.c_str());
      out += buffer;
      found = true;
      break;
    }
  }
  if (!found) out += " tail=none";
  out += " n=" + std::to_string(size());
  return out;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0 || pinned_;
}

void CpuRotation::Release() {
  if (!pinned_) return;
  sched_setaffinity(0, sizeof(original_), &original_);
  pinned_ = false;
}

std::map<std::string, double> SpanSeconds() {
  std::map<std::string, double> seconds;
  for (const maroon::obs::SpanRecord& span :
       maroon::obs::Tracer::Global().Snapshot()) {
    seconds[span.name] += span.duration_us * 1e-6;
  }
  return seconds;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Info(const std::string& line) const {
  std::cout << "# " << line << "\n" << std::flush;
}

void Report::Describe(const std::string& name, const Samples& samples,
                      double scale, const std::string& unit) const {
  if (samples.empty()) return;
  Info("timing " + name + " " + samples.Describe(scale, unit));
}

bool Report::Gate(const std::string& name, bool ok,
                  const std::string& detail) {
  std::pair<int, int>& tally = gates_[name];
  if (ok) {
    ++tally.first;
    return true;
  }
  ++tally.second;
  ++gates_failed_;
  ++failed_;
  Info("gate " + name + " FAILED" +
       (detail.empty() ? "" : " (" + detail + ")"));
  return false;
}

double Report::OkRatio() const {
  if (attempted_ == 0) return 0.0;
  return 1.0 - static_cast<double>(std::min(failed_, attempted_)) /
                   static_cast<double>(attempted_);
}

void Report::PrintResult(const std::vector<std::string>& expected) {
  Gate("operations_attempted", attempted_ > 0,
       std::to_string(attempted_) + " operations");
  for (const std::string& name : expected) {
    auto it = metrics_.find(name);
    const bool present = it != metrics_.end();
    Gate("metric_present." + name, present && std::isfinite(it->second.value),
         present ? "" : "not measured");
  }
  for (const auto& [name, tally] : gates_) {
    Info("gate " + name + " ok=" + std::to_string(tally.first) +
         " failed=" + std::to_string(tally.second));
  }
  maroon::obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct());
  w.Key("attempted").Number(static_cast<double>(std::max<uint64_t>(
      attempted_, 1)));  // 0 already failed the gate above
  w.Key("failed").Number(static_cast<double>(failed_));
  w.Key("metrics").BeginObject();
  for (const std::string& name : expected) {
    auto it = metrics_.find(name);
    if (it == metrics_.end() || !std::isfinite(it->second.value)) continue;
    w.Key(name).BeginObject();
    w.Key("value").Number(it->second.value);
    w.Key("unit").String(it->second.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::cout << w.text() << "\n" << std::flush;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
