#include "obs/metrics.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "maroon/version_info.h"
#include "obs/json.h"

namespace maroon {
namespace obs {

namespace {

bool EnabledFromEnvironment() {
  const char* env = std::getenv("MAROON_METRICS");
  if (env == nullptr) return true;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
         std::strcmp(env, "false") != 0;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{EnabledFromEnvironment()};
  return enabled;
}

/// The uptime/build gauges once RegisterBuildMetrics() created them;
/// TakeSnapshot() refreshes through these pointers without touching the
/// registry lock (which it is about to take itself).
std::atomic<Gauge*>& UptimeGaugeSlot() {
  static std::atomic<Gauge*> gauge{nullptr};
  return gauge;
}

std::atomic<Gauge*>& BuildInfoGaugeSlot() {
  static std::atomic<Gauge*> gauge{nullptr};
  return gauge;
}

}  // namespace

std::string BuildVersion() { return MAROON_VERSION; }

std::string BuildRevision() { return MAROON_GIT_DESCRIBE; }

double ProcessUptimeSeconds() {
  // Anchored at the first call — RegisterBuildMetrics() makes that call at
  // startup in long-lived entry points, so "uptime" means process uptime
  // there and first-scrape-relative time anywhere else.
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return SecondsSince(start);
}

void RegisterBuildMetrics() {
  (void)ProcessUptimeSeconds();  // anchor the uptime epoch
  MetricsRegistry& registry = MetricsRegistry::Global();
  Gauge* build_info = registry.GetGauge("maroon.build_info");
  build_info->Set(1.0);
  Gauge* uptime = registry.GetGauge("maroon.uptime_seconds");
  uptime->Set(ProcessUptimeSeconds());
  BuildInfoGaugeSlot().store(build_info, std::memory_order_release);
  UptimeGaugeSlot().store(uptime, std::memory_order_release);
}

bool BuildMetricsRegistered() {
  return UptimeGaugeSlot().load(std::memory_order_acquire) != nullptr;
}

void Counter::Add(int64_t delta) {
  if (!MetricsRegistry::Enabled()) return;
  value_.fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::Set(double value) {
  if (!MetricsRegistry::Enabled()) return;
  value_.store(value, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::SetEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

bool MetricsRegistry::Enabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  MAROON_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered with another kind";
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  MAROON_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered with another kind";
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  MAROON_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0)
      << "metric '" << name << "' already registered with another kind";
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  // Refresh the self-identification gauges (if registered) before reading,
  // so every snapshot — scrape, JSONL dump, run report — carries a current
  // uptime and survives an intervening ResetAll().
  if (Gauge* uptime = UptimeGaugeSlot().load(std::memory_order_acquire)) {
    uptime->Set(ProcessUptimeSeconds());
  }
  if (Gauge* info = BuildInfoGaugeSlot().load(std::memory_order_acquire)) {
    info->Set(1.0);
  }
  Snapshot snapshot;
  MutexLock lock(&mu_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  return snapshot;
}

std::string MetricsRegistry::SnapshotJson() const {
  const Snapshot snapshot = TakeSnapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    w.Key(name).Int(value);
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    w.Key(name).Number(value);
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : snapshot.histograms) {
    w.Key(name).BeginObject();
    w.Key("count").Int(h.count);
    w.Key("sum").Number(h.sum);
    w.Key("min").Number(h.min);
    w.Key("max").Number(h.max);
    w.Key("mean").Number(h.Mean());
    w.Key("p50").Number(h.P50());
    w.Key("p90").Number(h.P90());
    w.Key("p95").Number(h.P95());
    w.Key("p99").Number(h.P99());
    w.Key("p999").Number(h.P999());
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.text();
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace obs
}  // namespace maroon
