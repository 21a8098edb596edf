#include "obs/prometheus.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace maroon {
namespace obs {

namespace {

/// Prometheus sample values: shortest round-trip decimal form ("%g" is
/// enough for exposition; counts are integers and print as such).
std::string PromNumber(double value) {
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::abs(value) < 1e15) {  // maroon-lint: allow(R003)
    return std::to_string(static_cast<int64_t>(value));
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

void EmitHeader(const std::string& name, const char* type, std::string* out) {
  out->append("# HELP ")
      .append(name)
      .append(" ")
      .append(PrometheusEscapeHelp("MAROON pipeline metric"))
      .append("\n");
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

void EmitBucketLine(const std::string& name, const std::string& le,
                    int64_t cumulative, std::string* out) {
  out->append(name)
      .append("_bucket{le=\"")
      .append(le)
      .append("\"} ")
      .append(std::to_string(cumulative))
      .append("\n");
}

void EmitSumCount(const std::string& name, double sum, int64_t count,
                  std::string* out) {
  out->append(name).append("_sum ").append(PromNumber(sum)).append("\n");
  out->append(name).append("_count ").append(std::to_string(count)).append(
      "\n");
}

/// True when `prom` is new; otherwise records the dropped collider as an
/// exposition comment so scrapes never carry duplicate series.
bool ClaimSeries(const std::string& prom, const std::string& original,
                 std::set<std::string>* emitted, std::string* out) {
  if (emitted->insert(prom).second) return true;
  out->append("# maroon: dropped colliding series ")
      .append(original)
      .append("\n");
  return false;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(name[i]);
    const bool ok = std::isalpha(c) || c == '_' || c == ':' ||
                    (i > 0 && std::isdigit(c));
    if (!ok) return false;
  }
  return true;
}

bool ValidLabelName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(name[i]);
    const bool ok = std::isalpha(c) || c == '_' || (i > 0 && std::isdigit(c));
    if (!ok) return false;
  }
  return true;
}

/// State the lint accumulates per histogram family.
struct HistogramLint {
  int64_t last_bucket = 0;
  bool monotone = true;
  bool saw_inf = false;
  int64_t inf_count = 0;
  bool saw_count = false;
  double count_value = 0;
};

/// Strips a histogram sample suffix; "" when none.
std::string HistogramSuffix(const std::string& name, std::string* base) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const size_t len = std::strlen(suffix);
    if (name.size() > len &&
        name.compare(name.size() - len, len, suffix) == 0) {
      *base = name.substr(0, name.size() - len);
      return suffix;
    }
  }
  *base = name;
  return "";
}

/// Parses `{k="v",...}` starting at `pos` (the '{'); advances `pos` past the
/// closing '}'. Returns label-syntax problems; fills `le` when present.
std::vector<std::string> ParseLabels(const std::string& line, size_t* pos,
                                     std::string* le) {
  std::vector<std::string> problems;
  size_t p = *pos + 1;  // past '{'
  while (p < line.size() && line[p] != '}') {
    const size_t eq = line.find('=', p);
    if (eq == std::string::npos) {
      problems.push_back("label without '='");
      break;
    }
    const std::string key = line.substr(p, eq - p);
    if (!ValidLabelName(key)) {
      problems.push_back("bad label name '" + key + "'");
    }
    if (eq + 1 >= line.size() || line[eq + 1] != '"') {
      problems.push_back("label value for '" + key + "' not quoted");
      break;
    }
    std::string value;
    size_t q = eq + 2;
    bool closed = false;
    while (q < line.size()) {
      const char c = line[q];
      if (c == '\\') {
        if (q + 1 >= line.size() ||
            (line[q + 1] != '\\' && line[q + 1] != '"' &&
             line[q + 1] != 'n')) {
          problems.push_back("bad escape in label '" + key + "'");
        }
        value += c;
        if (q + 1 < line.size()) value += line[++q];
      } else if (c == '"') {
        closed = true;
        break;
      } else {
        value += c;
      }
      ++q;
    }
    if (!closed) {
      problems.push_back("unterminated label value for '" + key + "'");
      break;
    }
    if (key == "le") *le = value;
    p = q + 1;
    if (p < line.size() && line[p] == ',') ++p;
  }
  if (p >= line.size() || line[p] != '}') {
    problems.push_back("unterminated label set");
    *pos = line.size();
  } else {
    *pos = p + 1;
  }
  return problems;
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(name[i]);
    const bool ok = std::isalpha(c) || c == '_' || c == ':' ||
                    (i > 0 && std::isdigit(c));
    out += ok ? name[i] : '_';
  }
  return out.empty() ? "_" : out;
}

std::string PrometheusEscapeHelp(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string PrometheusEscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::vector<double> ScrapeBucketBounds() {
  std::vector<double> bounds;
  double bound = 1e-5;
  for (int i = 0; i <= 10; ++i) {
    bounds.push_back(bound);
    bound *= 4.0;
  }
  return bounds;
}

std::string PrometheusText(const MetricsRegistry::Snapshot& snapshot) {
  std::string out;
  std::set<std::string> emitted;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name);
    if (!ClaimSeries(prom, name, &emitted, &out)) continue;
    EmitHeader(prom, "counter", &out);
    out.append(prom).append(" ").append(std::to_string(value)).append("\n");
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    if (!ClaimSeries(prom, name, &emitted, &out)) continue;
    EmitHeader(prom, "gauge", &out);
    if (name == "maroon.build_info") {
      // The self-identification series: the binary's version and git
      // describe ride as labels, the value stays a constant 1.
      out.append(prom)
          .append("{version=\"")
          .append(PrometheusEscapeLabel(BuildVersion()))
          .append("\",revision=\"")
          .append(PrometheusEscapeLabel(BuildRevision()))
          .append("\"} ")
          .append(PromNumber(value))
          .append("\n");
      continue;
    }
    out.append(prom).append(" ").append(PromNumber(value)).append("\n");
  }
  const std::vector<double> ladder = ScrapeBucketBounds();
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string prom = PrometheusName(name);
    if (!ClaimSeries(prom, name, &emitted, &out)) continue;
    EmitHeader(prom, "histogram", &out);
    for (const double bound : ladder) {
      EmitBucketLine(prom, PromNumber(bound), h.CountAtOrBelow(bound), &out);
    }
    EmitBucketLine(prom, "+Inf", h.count, &out);
    EmitSumCount(prom, h.sum, h.count, &out);
  }
  return out;
}

std::string PrometheusTextFromGlobal() {
  return PrometheusText(MetricsRegistry::Global().TakeSnapshot());
}

std::vector<std::string> PrometheusLint(const std::string& text) {
  std::vector<std::string> problems;
  std::map<std::string, std::string> type_of;  // family -> counter/gauge/...
  std::map<std::string, HistogramLint> histograms;
  auto complain = [&problems](int line_no, const std::string& what) {
    problems.push_back("line " + std::to_string(line_no) + ": " + what);
  };

  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t end = text.find('\n', pos);
    const std::string line = text.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos);
    pos = end == std::string::npos ? text.size() + 1 : end + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // Only TYPE comments carry lint weight; HELP and free comments pass.
      if (line.compare(0, 7, "# TYPE ") == 0) {
        const size_t name_end = line.find(' ', 7);
        if (name_end == std::string::npos) {
          complain(line_no, "TYPE comment without a type");
          continue;
        }
        const std::string family = line.substr(7, name_end - 7);
        const std::string type = line.substr(name_end + 1);
        if (!ValidMetricName(family)) {
          complain(line_no, "bad metric name '" + family + "' in TYPE");
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          complain(line_no, "unknown type '" + type + "'");
        }
        if (!type_of.emplace(family, type).second) {
          complain(line_no, "duplicate TYPE for '" + family + "'");
        }
      }
      continue;
    }

    // A sample line: name[{labels}] value.
    size_t cursor = line.find_first_of("{ ");
    if (cursor == std::string::npos) {
      complain(line_no, "sample line without a value");
      continue;
    }
    const std::string name = line.substr(0, cursor);
    if (!ValidMetricName(name)) {
      complain(line_no, "bad metric name '" + name + "'");
      continue;
    }
    std::string le;
    if (line[cursor] == '{') {
      for (const std::string& problem : ParseLabels(line, &cursor, &le)) {
        complain(line_no, problem);
      }
      if (cursor >= line.size() || line[cursor] != ' ') {
        complain(line_no, "no value after label set");
        continue;
      }
    }
    // value [timestamp] — the exposition format allows an optional
    // millisecond timestamp after the value (this exporter never emits one,
    // but hand-written fixtures may).
    std::string value_text = line.substr(cursor + 1);
    const size_t value_end = value_text.find(' ');
    if (value_end != std::string::npos) {
      const std::string timestamp = value_text.substr(value_end + 1);
      value_text.resize(value_end);
      char* ts_end = nullptr;
      (void)std::strtoll(timestamp.c_str(), &ts_end, 10);
      if (timestamp.empty() || ts_end == nullptr || *ts_end != '\0') {
        complain(line_no, "unparseable timestamp '" + timestamp + "'");
        continue;
      }
    }
    double value = 0;
    if (value_text == "+Inf" || value_text == "-Inf" || value_text == "NaN") {
      value = 0;  // legal sample values; magnitude not needed below
    } else {
      char* parse_end = nullptr;
      value = std::strtod(value_text.c_str(), &parse_end);
      if (value_text.empty() || parse_end == nullptr || *parse_end != '\0') {
        complain(line_no, "unparseable sample value '" + value_text + "'");
        continue;
      }
    }

    std::string family;
    const std::string suffix = HistogramSuffix(name, &family);
    const bool histogram_family =
        !suffix.empty() && type_of.count(family) != 0 &&
        type_of[family] == "histogram";
    const std::string typed_as = histogram_family ? family : name;
    if (type_of.count(typed_as) == 0) {
      complain(line_no, "sample for '" + name + "' precedes its TYPE");
      continue;
    }
    if (!histogram_family && type_of[typed_as] == "histogram") {
      complain(line_no,
               "bare sample for histogram family '" + typed_as + "'");
      continue;
    }
    if (histogram_family) {
      HistogramLint& h = histograms[family];
      if (suffix == "_bucket") {
        if (le.empty()) {
          complain(line_no, "histogram bucket without an le label");
        } else if (le == "+Inf") {
          h.saw_inf = true;
          h.inf_count = static_cast<int64_t>(value);
          if (value < static_cast<double>(h.last_bucket)) h.monotone = false;
        } else {
          const int64_t count = static_cast<int64_t>(value);
          if (count < h.last_bucket) h.monotone = false;
          h.last_bucket = count;
        }
      } else if (suffix == "_count") {
        h.saw_count = true;
        h.count_value = value;
      }
    }
  }

  for (const auto& [family, h] : histograms) {
    if (!h.saw_inf) {
      problems.push_back("histogram '" + family + "' has no +Inf bucket");
    }
    if (!h.monotone) {
      problems.push_back("histogram '" + family +
                         "' buckets are not cumulative");
    }
    if (h.saw_inf && h.saw_count &&
        h.count_value != static_cast<double>(h.inf_count)) {
      problems.push_back("histogram '" + family +
                         "' _count disagrees with its +Inf bucket");
    }
  }
  return problems;
}

}  // namespace obs
}  // namespace maroon
