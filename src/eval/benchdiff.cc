#include "eval/benchdiff.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/string_util.h"

namespace maroon {

namespace {

constexpr const char* kSchema = "maroon_bench_runtime_v1";

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Fields that identify a row rather than measure it.
bool IsIdentityField(const std::string& key) {
  return key == "bench" || key == "threads" || key == "entities" ||
         key == "records";
}

/// Timing metrics are the gated ones. A `_per_s` rate is not a timing: it
/// grows when the code gets faster, and its row's wall time gates it.
bool IsTimingField(const std::string& key) {
  return (EndsWith(key, "_s") && !EndsWith(key, "_per_s")) ||
         EndsWith(key, "_ms");
}

std::string FormatIdentityNumber(double value) {
  // Identity numerics (threads, entities, records) are integral.
  return std::to_string(static_cast<int64_t>(value));
}

/// The stable identity of one row: bench name, then every string label and
/// identity numeric in key order (JsonValue objects are sorted maps).
std::string RowKey(const obs::JsonValue& row) {
  std::string key;
  if (const obs::JsonValue* bench = row.Find("bench")) {
    key = bench->string_value;
  }
  for (const auto& [name, value] : row.object) {
    // "schema" tags the row format, it does not identify the measurement —
    // keys must line up across baselines that predate the per-row tag.
    if (name == "bench" || name == "schema") continue;
    if (value.is_string()) {
      key += " " + name + "=" + value.string_value;
    } else if (value.is_number() && IsIdentityField(name)) {
      key += " " + name + "=" + FormatIdentityNumber(value.number_value);
    }
  }
  return key.empty() ? "(unidentified row)" : key;
}

/// The comparable metrics of one row: every numeric field that is neither
/// identity nor the assignment fingerprint.
std::map<std::string, double> RowMetrics(const obs::JsonValue& row) {
  std::map<std::string, double> metrics;
  for (const auto& [name, value] : row.object) {
    if (!value.is_number()) continue;
    if (IsIdentityField(name) || name == "result_hash") continue;
    metrics[name] = value.number_value;
  }
  return metrics;
}

/// Collects the document's comparable rows keyed by identity: the "rows"
/// array plus the derived "overhead" and "thread_sweep" summary objects.
/// Duplicate keys get a " #n" suffix so no row is silently shadowed.
std::map<std::string, const obs::JsonValue*> CollectRows(
    const obs::JsonValue& doc, std::vector<std::string>* errors,
    const char* which) {
  std::map<std::string, const obs::JsonValue*> rows;
  const obs::JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != kSchema) {
    errors->push_back(std::string(which) + " file: schema is not \"" +
                      kSchema + "\"");
    return rows;
  }
  const auto insert = [&rows](const obs::JsonValue& row) {
    std::string key = RowKey(row);
    int n = 2;
    while (rows.count(key) != 0) {
      key = RowKey(row) + " #" + std::to_string(n++);
    }
    rows[key] = &row;
  };
  const obs::JsonValue* array = doc.Find("rows");
  if (array == nullptr || !array->is_array()) {
    errors->push_back(std::string(which) + " file: missing \"rows\" array");
  } else {
    for (const obs::JsonValue& row : array->array) {
      if (row.is_object()) insert(row);
    }
  }
  for (const char* summary : {"overhead", "thread_sweep"}) {
    const obs::JsonValue* object = doc.Find(summary);
    if (object != nullptr && object->is_object()) insert(*object);
  }
  return rows;
}

}  // namespace

std::string BenchDiffReport::ToText() const {
  std::ostringstream os;
  os << "benchdiff: " << entries.size() << " metric(s) compared\n";
  for (const BenchDiffEntry& e : entries) {
    os << "  [" << e.row_key << "] " << e.metric << ": "
       << FormatDouble(e.baseline, 6) << " -> " << FormatDouble(e.current, 6)
       << " (" << (e.delta_pct >= 0 ? "+" : "")
       << FormatDouble(e.delta_pct, 2) << "%"
       << (e.regressed ? ", REGRESSED" : (e.gated ? "" : ", not gated"))
       << ")\n";
  }
  for (const std::string& addition : additions) {
    os << "  new: " << addition << "\n";
  }
  for (const std::string& error : errors) {
    os << "  ERROR: " << error << "\n";
  }
  os << (ok() ? "benchdiff: OK"
              : "benchdiff: FAIL (" + std::to_string(regressions) +
                    " regression(s), " + std::to_string(errors.size()) +
                    " error(s))")
     << "\n";
  return os.str();
}

std::string BenchDiffReport::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("maroon_benchdiff_v1");
  w.Key("ok").Bool(ok());
  w.Key("regressions").Int(regressions);
  w.Key("entries").BeginArray();
  for (const BenchDiffEntry& e : entries) {
    w.BeginObject();
    w.Key("row").String(e.row_key);
    w.Key("metric").String(e.metric);
    w.Key("baseline").Number(e.baseline);
    w.Key("current").Number(e.current);
    w.Key("delta_pct").Number(e.delta_pct);
    w.Key("gated").Bool(e.gated);
    w.Key("regressed").Bool(e.regressed);
    w.EndObject();
  }
  w.EndArray();
  w.Key("additions").BeginArray();
  for (const std::string& addition : additions) w.String(addition);
  w.EndArray();
  w.Key("errors").BeginArray();
  for (const std::string& error : errors) w.String(error);
  w.EndArray();
  w.EndObject();
  return w.text();
}

BenchDiffReport DiffBenchDocuments(const obs::JsonValue& baseline,
                                   const obs::JsonValue& current,
                                   const BenchDiffOptions& options) {
  BenchDiffReport report;
  const std::map<std::string, const obs::JsonValue*> base_rows =
      CollectRows(baseline, &report.errors, "baseline");
  const std::map<std::string, const obs::JsonValue*> cur_rows =
      CollectRows(current, &report.errors, "current");
  if (!report.errors.empty()) return report;

  for (const auto& [key, base_row] : base_rows) {
    const auto found = cur_rows.find(key);
    if (found == cur_rows.end()) {
      report.errors.push_back("row missing from current file: " + key);
      continue;
    }
    const std::map<std::string, double> base_metrics = RowMetrics(*base_row);
    const std::map<std::string, double> cur_metrics =
        RowMetrics(*found->second);
    for (const auto& [metric, base_value] : base_metrics) {
      const auto cur_it = cur_metrics.find(metric);
      if (cur_it == cur_metrics.end()) {
        report.errors.push_back("metric missing from current file: [" + key +
                                "] " + metric);
        continue;
      }
      BenchDiffEntry entry;
      entry.row_key = key;
      entry.metric = metric;
      entry.baseline = base_value;
      entry.current = cur_it->second;
      // Exact-zero guard (not ApproxZero): a denormal-but-nonzero baseline
      // still yields a meaningful ratio, only a true 0 divides by zero.
      entry.delta_pct =
          std::abs(base_value) > 0.0
              ? 100.0 * (entry.current - base_value) / base_value
              : 0.0;
      entry.delta_pct += 0.0;  // normalize -0.0 so the sign prints cleanly
      if (IsTimingField(metric)) {
        const double to_seconds = EndsWith(metric, "_ms") ? 1e-3 : 1.0;
        const double larger_s =
            std::max(entry.baseline, entry.current) * to_seconds;
        entry.gated = larger_s >= options.min_seconds;
        entry.regressed =
            entry.gated && entry.delta_pct > options.threshold_pct;
      }
      if (entry.regressed) ++report.regressions;
      report.entries.push_back(std::move(entry));
    }
    for (const auto& [metric, value] : cur_metrics) {
      if (base_metrics.count(metric) == 0) {
        report.additions.push_back("[" + key + "] " + metric);
      }
    }
  }
  for (const auto& [key, row] : cur_rows) {
    if (base_rows.count(key) == 0) report.additions.push_back(key);
  }
  return report;
}

Result<BenchDiffReport> DiffBenchFiles(const std::string& baseline_path,
                                       const std::string& current_path,
                                       const BenchDiffOptions& options) {
  const auto load = [](const std::string& path) -> Result<obs::JsonValue> {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<obs::JsonValue> parsed = obs::ParseJson(buffer.str());
    if (!parsed.ok()) {
      return Status::InvalidArgument(path + ": " +
                                     parsed.status().message());
    }
    return parsed;
  };
  MAROON_ASSIGN_OR_RETURN(const obs::JsonValue baseline, load(baseline_path));
  MAROON_ASSIGN_OR_RETURN(const obs::JsonValue current, load(current_path));
  return DiffBenchDocuments(baseline, current, options);
}

}  // namespace maroon
