#include "freshness/freshness_model.h"

#include <algorithm>
#include <charconv>
#include <set>
#include <system_error>

#include "common/csv.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace maroon {

std::optional<int64_t> ComputeDelay(const TemporalSequence& seq,
                                    const Value& v, TimePoint t) {
  bool occurs_at_t = false;
  for (const Interval& iv : seq.IntervalsOf(v)) {
    if (iv.Contains(t)) {
      occurs_at_t = true;
      break;
    }
  }
  if (occurs_at_t) return 0;
  std::optional<TimePoint> t_max =
      seq.LatestOccurrenceBefore(v, t, /*strictly_before=*/true);
  if (!t_max) return std::nullopt;
  return static_cast<int64_t>(t) - *t_max;
}

void FreshnessModel::AddObservation(SourceId source,
                                    const Attribute& attribute,
                                    int64_t delay) {
  MAROON_DCHECK(delay >= 0);
  finalized_ = false;
  Distribution& dist = distributions_[{source, attribute}];
  ++dist.counts[delay];
  ++dist.total;
}

void FreshnessModel::Finalize() {
  for (auto& [key, dist] : distributions_) {
    dist.probabilities.clear();
    if (dist.total == 0) continue;
    for (const auto& [eta, count] : dist.counts) {
      dist.probabilities[eta] =
          static_cast<double>(count) / static_cast<double>(dist.total);
    }
  }
  finalized_ = true;
}

double FreshnessModel::Delay(int64_t eta, SourceId source,
                             const Attribute& attribute) const {
  MAROON_DCHECK(finalized_);
  auto it = distributions_.find({source, attribute});
  if (it == distributions_.end() || it->second.total == 0) {
    return eta == 0 ? 1.0 : 0.0;
  }
  auto p = it->second.probabilities.find(eta);
  return p != it->second.probabilities.end() ? p->second : 0.0;
}

bool FreshnessModel::IsFresh(SourceId source,
                             const std::vector<Attribute>& attributes,
                             double mu) const {
  for (const Attribute& a : attributes) {
    if (Delay(0, source, a) <= mu) return false;
  }
  return true;
}

double FreshnessModel::FreshnessScore(
    SourceId source, const std::vector<Attribute>& attributes) const {
  if (attributes.empty()) return 0.0;
  double total = 0.0;
  for (const Attribute& a : attributes) total += Delay(0, source, a);
  return total / static_cast<double>(attributes.size());
}

int64_t FreshnessModel::ObservationCount(SourceId source,
                                         const Attribute& attribute) const {
  auto it = distributions_.find({source, attribute});
  return it != distributions_.end() ? it->second.total : 0;
}

FreshnessModel FreshnessModel::Train(
    const Dataset& dataset, const std::vector<EntityId>& training_entities) {
  MAROON_TRACE_SPAN("freshness.train");
  FreshnessModel model;
  int64_t observations = 0;
  std::set<EntityId> training(training_entities.begin(),
                              training_entities.end());
  for (const TemporalRecord& r : dataset.records()) {
    const EntityId& label = dataset.LabelOf(r.id());
    if (label.empty() || training.count(label) == 0) continue;
    auto target = dataset.target(label);
    if (!target.ok()) continue;
    const EntityProfile& profile = (*target)->ground_truth;
    for (const auto& [attribute, values] : r.values()) {
      const TemporalSequence& seq = profile.sequence(attribute);
      if (seq.empty()) continue;
      for (const Value& v : values) {
        std::optional<int64_t> delay = ComputeDelay(seq, v, r.timestamp());
        if (delay) {
          ++observations;
          model.AddObservation(r.source(), attribute, *delay);
        }
      }
    }
  }
  model.Finalize();
  MAROON_COUNTER("maroon.freshness.observations")->Add(observations);
  MAROON_COUNTER("maroon.freshness.distributions")
      ->Add(static_cast<int64_t>(model.distributions_.size()));
  // Per-source delay summaries: mean delay and the zero-delay (perfectly
  // fresh) share, aggregated across attributes.
  std::map<SourceId, std::pair<int64_t, int64_t>> per_source;  // {sum, total}
  std::map<SourceId, int64_t> zero_delay;
  for (const auto& [key, dist] : model.distributions_) {
    auto& [sum, total] = per_source[key.first];
    for (const auto& [eta, count] : dist.counts) {
      sum += eta * count;
      if (eta == 0) zero_delay[key.first] += count;
    }
    total += dist.total;
  }
  for (const auto& [source, stats] : per_source) {
    if (stats.second == 0) continue;
    const std::string prefix =
        "maroon.freshness.source" + std::to_string(source);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetGauge(prefix + ".mean_delay")
        ->Set(static_cast<double>(stats.first) /
              static_cast<double>(stats.second));
    registry.GetGauge(prefix + ".zero_delay_share")
        ->Set(static_cast<double>(zero_delay[source]) /
              static_cast<double>(stats.second));
  }
  return model;
}

namespace {

Status ParseFreshnessInt(const std::string& cell, int64_t* out) {
  auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), *out);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
    return Status::InvalidArgument("cannot parse integer '" + cell + "'");
  }
  return Status::OK();
}

constexpr char kFreshnessFormat[] = "maroon_freshness_model_v2";

}  // namespace

std::string FreshnessModel::Serialize() const {
  CsvWriter writer;
  writer.AppendRow({"format", kFreshnessFormat});
  for (const auto& [key, dist] : distributions_) {
    for (const auto& [eta, count] : dist.counts) {
      writer.AppendRow({"delay", std::to_string(key.first), key.second,
                        std::to_string(eta), std::to_string(count)});
    }
  }
  return writer.text();
}

Result<FreshnessModel> FreshnessModel::Deserialize(const std::string& text) {
  MAROON_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  if (rows.empty() || rows[0].size() < 2 || rows[0][0] != "format" ||
      rows[0][1] != kFreshnessFormat) {
    return Status::InvalidArgument(
        std::string("not a serialized freshness model (expected format ") +
        kFreshnessFormat + ")");
  }
  FreshnessModel model;
  for (size_t i = 1; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.empty()) continue;
    const std::string& kind = row[0];
    if (kind == "delay") {
      if (row.size() != 5) {
        return Status::InvalidArgument("malformed delay row " +
                                       std::to_string(i));
      }
      int64_t source = 0, eta = 0, count = 0;
      MAROON_RETURN_IF_ERROR(ParseFreshnessInt(row[1], &source));
      MAROON_RETURN_IF_ERROR(ParseFreshnessInt(row[3], &eta));
      MAROON_RETURN_IF_ERROR(ParseFreshnessInt(row[4], &count));
      Distribution& dist =
          model.distributions_[{static_cast<SourceId>(source), row[2]}];
      dist.counts[eta] += count;
      dist.total += count;
    } else {
      return Status::InvalidArgument("unknown row kind '" + kind + "'");
    }
  }
  model.Finalize();
  return model;
}

}  // namespace maroon
