#include "obs/run_report.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace maroon {
namespace obs {

std::string Iso8601UtcNow() {
  const std::time_t now = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[80];
  std::snprintf(buffer, sizeof(buffer), "%04d-%02d-%02dT%02d:%02d:%02dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec);
  return buffer;
}

namespace {

/// Four significant digits: one format for seconds (1.234e-05) and [0, 1]
/// scores (0.8125) alike, since a histogram carries no unit.
std::string SignificantDigits(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  return buffer;
}

}  // namespace

std::string BuildRunReportJson(const RunReportOptions& options) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("maroon_run_report_v2");
  w.Key("generated_at")
      .String(options.include_timestamp ? Iso8601UtcNow() : "");
  w.Key("config").BeginObject();
  for (const auto& [key, value] : options.config) {
    w.Key(key).String(value);
  }
  w.EndObject();
  // Splice the registry's own JSON in verbatim rather than re-serializing.
  std::string out = w.text();
  out += ", \"metrics\": ";
  out += MetricsRegistry::Global().SnapshotJson();

  const Tracer& tracer = Tracer::Global();
  JsonWriter trace;
  trace.BeginObject();
  trace.Key("enabled").Bool(Tracer::Enabled());
  trace.Key("span_count").Int(static_cast<int64_t>(tracer.span_count()));
  trace.Key("root_span_seconds").Number(tracer.RootSpanSeconds());
  trace.EndObject();
  out += ", \"trace\": ";
  out += trace.text();
  out += "}";
  return out;
}

std::string RenderRunReportText(const RunReportOptions& options) {
  const MetricsRegistry::Snapshot snapshot =
      MetricsRegistry::Global().TakeSnapshot();
  std::ostringstream os;
  os << "== MAROON run report ==\n";
  if (!options.config.empty()) {
    os << "config:\n";
    for (const auto& [key, value] : options.config) {
      os << "  " << key << " = " << value << "\n";
    }
  }
  os << "counters:\n";
  bool any = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (value == 0) continue;
    any = true;
    os << "  " << name << " = " << value << "\n";
  }
  if (!any) os << "  (all zero)\n";
  if (!snapshot.gauges.empty()) {
    os << "gauges:\n";
    for (const auto& [name, value] : snapshot.gauges) {
      os << "  " << name << " = " << FormatDouble(value, 4) << "\n";
    }
  }
  if (!snapshot.histograms.empty()) {
    os << "histograms:\n";
    for (const auto& [name, h] : snapshot.histograms) {
      os << "  " << name << ": count=" << h.count
         << " mean=" << SignificantDigits(h.Mean())
         << " p50=" << SignificantDigits(h.P50())
         << " p90=" << SignificantDigits(h.P90())
         << " p99=" << SignificantDigits(h.P99())
         << " p999=" << SignificantDigits(h.P999())
         << " max=" << SignificantDigits(h.max) << "\n";
    }
  }
  os << "trace: " << Tracer::Global().span_count() << " span(s), "
     << FormatDouble(Tracer::Global().RootSpanSeconds(), 3)
     << "s in root spans ("
     << (Tracer::Enabled() ? "enabled" : "disabled") << ")\n";
  return os.str();
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << content;
  out.flush();
  if (!out) return Status::IOError("failed writing " + path);
  // Surface close-time failures too (flush-on-close filesystems, quotas);
  // the implicit destructor close would swallow them.
  out.close();
  if (out.fail()) return Status::IOError("failed closing " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace maroon
