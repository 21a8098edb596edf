#include "transition/transition_model.h"

#include <algorithm>
#include <charconv>
#include <unordered_map>
#include <system_error>

#include "common/csv.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace maroon {

namespace {

/// Applies the mapper to every value of `set` and re-canonicalizes (distinct
/// raw values may generalize to the same category).
ValueSet MapValueSet(const ValueMapper* mapper, const Attribute& attribute,
                     const ValueSet& set) {
  if (mapper == nullptr) return set;
  std::vector<Value> mapped;
  mapped.reserve(set.size());
  for (const Value& v : set) mapped.push_back(mapper->Map(attribute, v));
  return MakeValueSet(std::move(mapped));
}

/// One worker's private slice of the training state for one attribute.
/// Sharding is exact: frequencies and Δt-transition counts are integer
/// sums, which commute, so merging shards in any grouping reproduces the
/// serial counts bit for bit (and the tables derive all doubles from those
/// integers).
struct TrainShard {
  std::map<Value, int64_t> value_frequency;
  int64_t max_lifespan = 0;
  /// Δt -> packed (from, to) id pair -> count.
  std::map<int64_t, std::unordered_map<TransitionTable::PackedPair, int64_t>>
      counts;
  int64_t observations = 0;
};

/// Adds one profile's instants-weighted value frequencies and lifespan for
/// `attribute` into `shard`; these are the attribute's vocabulary.
void CountProfileValues(const ValueMapper* mapper, const Attribute& attribute,
                        const EntityProfile& profile, TrainShard* shard) {
  const TemporalSequence& seq = profile.sequence(attribute);
  if (seq.empty()) return;
  shard->max_lifespan = std::max(shard->max_lifespan, seq.Lifespan());
  for (const Triple& tr : seq.triples()) {
    for (const Value& v : MapValueSet(mapper, attribute, tr.values)) {
      shard->value_frequency[v] += tr.interval.Length();
    }
  }
}

/// Counts one profile's Δt-transitions for `attribute` into `shard` as id
/// pairs of `dictionary` (Algorithm 1 over every ordered triple pair via
/// Proposition 1).
void CountProfileTransitions(const ValueMapper* mapper,
                             const Attribute& attribute,
                             const ValueDictionary& dictionary,
                             const EntityProfile& profile, TrainShard* shard) {
  const std::vector<Triple>& triples = profile.sequence(attribute).triples();
  // Each triple's mapped set as ascending ids (ids order like values).
  std::vector<std::vector<ValueId>> ids(triples.size());
  for (size_t i = 0; i < triples.size(); ++i) {
    for (const Value& v : triples[i].values) {
      const ValueId id = mapper != nullptr
                             ? dictionary.Find(mapper->Map(attribute, v))
                             : dictionary.Find(v);
      MAROON_DCHECK(id != kNoValueId);
      ids[i].push_back(id);
    }
    std::sort(ids[i].begin(), ids[i].end());
    ids[i].erase(std::unique(ids[i].begin(), ids[i].end()), ids[i].end());
  }

  // Algorithm 1: every ordered pair of triples (b <= b'), every valid Δt,
  // counted in closed form via Proposition 1.
  for (size_t i = 0; i < triples.size(); ++i) {
    const Interval& first = triples[i].interval;
    for (size_t j = i; j < triples.size(); ++j) {
      const Interval& second = triples[j].interval;
      MAROON_DCHECK(first.begin <= second.begin);
      const int64_t delta_min = std::max<int64_t>(
          1, static_cast<int64_t>(second.begin) - first.end);
      const int64_t delta_max =
          static_cast<int64_t>(second.end) - first.begin;
      for (int64_t delta = delta_min; delta <= delta_max; ++delta) {
        // Proposition 1: number of instants x with x in [b, e] and
        // x + Δt in [b', e'].
        const int64_t lo = std::max<int64_t>(
            first.begin, static_cast<int64_t>(second.begin) - delta);
        const int64_t hi = std::min<int64_t>(
            first.end, static_cast<int64_t>(second.end) - delta);
        const int64_t occurrences = hi - lo + 1;
        if (occurrences <= 0) continue;
        ++shard->observations;
        auto& counts = shard->counts[delta];
        for (ValueId v : ids[i]) {
          for (ValueId w : ids[j]) {
            counts[TransitionTable::Pack(v, w)] += occurrences;
          }
        }
      }
    }
  }
}

/// Runs `count(profile, shard)` over every profile, one shard per strand.
template <typename CountFn>
std::vector<TrainShard> CountShards(const ProfileSet& profiles,
                                    ThreadPool* pool, int width,
                                    const CountFn& count) {
  std::vector<TrainShard> shards(pool != nullptr ? width : 1);
  if (pool == nullptr) {
    for (const EntityProfile& profile : profiles) count(profile, &shards[0]);
  } else {
    pool->ParallelFor(profiles.size(), width, [&](int strand, size_t i) {
      obs::PoolTaskScope task("pool.train_profile");
      count(profiles[i], &shards[strand]);
    });
  }
  return shards;
}

}  // namespace

TransitionModel TransitionModel::Train(
    const ProfileSet& profiles, const std::vector<Attribute>& attributes,
    TransitionModelOptions options) {
  MAROON_TRACE_SPAN("transition.train");
  TransitionModel model;
  model.options_ = std::move(options);
  const ValueMapper* mapper = model.options_.mapper.get();
  int64_t observations = 0;

  const int width = ThreadPool::ResolveThreadCount(0);
  ThreadPool* pool = width > 1 ? ThreadPool::Shared(width) : nullptr;

  for (const Attribute& attribute : attributes) {
    AttributeModel& am = model.attributes_[attribute];

    // Pass 1: the vocabulary and its frequencies. Shards merge in strand
    // order; see TrainShard on why this is exact.
    std::map<Value, int64_t> frequency;
    for (TrainShard& shard : CountShards(
             profiles, pool, width,
             [&](const EntityProfile& profile, TrainShard* shard) {
               CountProfileValues(mapper, attribute, profile, shard);
             })) {
      am.max_lifespan = std::max(am.max_lifespan, shard.max_lifespan);
      for (const auto& [value, count] : shard.value_frequency) {
        frequency[value] += count;
      }
    }
    std::vector<Value> values;
    values.reserve(frequency.size());
    for (const auto& [value, count] : frequency) {
      values.push_back(value);
      am.value_frequency.emplace_back(count);
    }
    am.dictionary = std::make_shared<const ValueDictionary>(std::move(values));

    // Pass 2: Δt-transition counts over the now read-only dictionary.
    std::map<int64_t, std::unordered_map<TransitionTable::PackedPair, int64_t>>
        counts;
    for (TrainShard& shard : CountShards(
             profiles, pool, width,
             [&](const EntityProfile& profile, TrainShard* shard) {
               CountProfileTransitions(mapper, attribute, *am.dictionary,
                                       profile, shard);
             })) {
      for (auto& [delta, shard_counts] : shard.counts) {
        auto& merged = counts[delta];
        for (const auto& [pair, count] : shard_counts) merged[pair] += count;
      }
      observations += shard.observations;
    }
    for (auto& [delta, delta_counts] : counts) {
      am.tables.emplace(
          delta, TransitionTable(am.dictionary,
                                 {delta_counts.begin(), delta_counts.end()}));
      delta_counts = {};
    }
    MAROON_COUNTER("maroon.transition.tables_built")
        ->Add(static_cast<int64_t>(am.tables.size()));
  }
  MAROON_COUNTER("maroon.transition.attributes_trained")
      ->Add(static_cast<int64_t>(attributes.size()));
  MAROON_COUNTER("maroon.transition.delta_observations")->Add(observations);
  return model;
}

const TransitionTable* TransitionModel::ResolveTable(
    const AttributeModel& model, int64_t delta) const {
  if (model.tables.empty()) return nullptr;
  // Eq. 2: Δt >= L uses the probability at L - 1.
  if (model.max_lifespan >= 2 && delta >= model.max_lifespan) {
    delta = model.max_lifespan - 1;
  }
  // Nearest table at or below `delta`; else the smallest one above.
  auto it = model.tables.upper_bound(delta);
  if (it != model.tables.begin()) return &std::prev(it)->second;
  return &it->second;
}

struct TransitionModel::LookupTally {
  int64_t exact = 0;
  int64_t case1 = 0;
  int64_t case2 = 0;
  int64_t case3 = 0;
  int64_t case4 = 0;

  /// Adds each nonzero count to its counter once.
  void Publish() const {
    const auto publish = [](obs::Counter* counter, int64_t n) {
      if (n != 0) counter->Add(n);
    };
    publish(MAROON_COUNTER("maroon.transition.case_exact"), exact);
    publish(MAROON_COUNTER("maroon.transition.case1_unseen_pair"), case1);
    publish(MAROON_COUNTER("maroon.transition.case2_unseen_destination"),
            case2);
    publish(MAROON_COUNTER("maroon.transition.case3_unseen_origin"), case3);
    publish(MAROON_COUNTER("maroon.transition.case4_both_unseen"), case4);
  }
};

std::vector<TransitionModel::MappedValue> TransitionModel::MapSet(
    const AttributeModel& am, const Attribute& attribute,
    const ValueSet& values) const {
  std::vector<MappedValue> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    MappedValue& mv = out[i];
    if (options_.mapper != nullptr) {
      Value mapped = options_.mapper->Map(attribute, values[i]);
      mv.id = am.dictionary->Find(mapped);
      if (mv.id == kNoValueId) mv.unknown = std::move(mapped);
    } else {
      mv.id = am.dictionary->Find(values[i]);
      if (mv.id == kNoValueId) mv.unknown = values[i];
    }
    const int64_t frequency =
        mv.id != kNoValueId ? am.value_frequency[mv.id].value_or(0) : 0;
    mv.frequent = frequency >= options_.min_value_frequency;
  }
  return out;
}

double TransitionModel::PairProbability(const TransitionTable& table,
                                        const MappedValue& from,
                                        const MappedValue& to,
                                        LookupTally* tally) const {
  const bool from_seen = from.frequent && table.HasOrigin(from.id);
  const bool to_seen = to.frequent && table.HasDestination(to.id);

  // "Unseen transitions are rare": optionally bound smoothed probabilities
  // by the evidence mass that failed to produce the transition.
  const auto rare = [&](double probability, int64_t support) {
    if (!options_.cap_unseen_by_support) return probability;
    return std::min(probability,
                    1.0 / (static_cast<double>(support) + 1.0));
  };

  if (from_seen && to_seen) {
    const int64_t count = table.Count(from.id, to.id);
    if (count > 0) {
      ++tally->exact;
      // Eq. 1, as TransitionTable::ConditionalProbability computes it.
      return static_cast<double>(count) /
             static_cast<double>(table.RowSum(from.id));
    }
    // Case 1 (Eq. 3).
    ++tally->case1;
    return rare(table.MinRowProbability(from.id), table.RowSum(from.id));
  }
  if (from_seen) {
    // Case 2 (Eq. 4).
    ++tally->case2;
    return rare(table.MinRowProbability(from.id), table.RowSum(from.id));
  }
  if (to_seen) {
    ++tally->case3;
    return table.PriorProbability(to.id);  // Case 3 (Eq. 5).
  }
  // Case 4 (Eq. 6-8). Equal ids are equal values; two values outside the
  // vocabulary compare by the values themselves.
  ++tally->case4;
  if (from.id == to.id &&
      (from.id != kNoValueId || from.unknown == to.unknown)) {
    return table.RecurrenceProbability();
  }
  return rare(table.ExpectedChangeProbability(), table.DiffTotal());
}

double TransitionModel::Probability(const Attribute& attribute, const Value& v,
                                    const Value& v_next, int64_t delta) const {
  MAROON_DCHECK(delta >= 0);
  if (delta == 0) return 1.0;  // Eq. 2.
  auto attr_it = attributes_.find(attribute);
  if (attr_it == attributes_.end()) return 0.0;
  const AttributeModel& am = attr_it->second;
  const TransitionTable* table = ResolveTable(am, delta);
  if (table == nullptr || table->empty()) return 0.0;
  const std::vector<MappedValue> from = MapSet(am, attribute, {v});
  const std::vector<MappedValue> to = MapSet(am, attribute, {v_next});
  LookupTally tally;
  const double probability = PairProbability(*table, from[0], to[0], &tally);
  tally.Publish();
  return probability;
}

double TransitionModel::SetProbabilityImpl(
    const TransitionTable* table, const std::vector<MappedValue>& from,
    const std::vector<MappedValue>& to, LookupTally* tally) const {
  if (to.empty() || from.empty()) return 0.0;
  if (table == nullptr || table->empty()) return 0.0;
  double total = 0.0;
  for (const MappedValue& w : to) {
    double best = 0.0;
    for (const MappedValue& v : from) {
      best = std::max(best, PairProbability(*table, v, w, tally));
    }
    total += best;
  }
  return total / static_cast<double>(to.size());
}

double TransitionModel::SetProbability(const Attribute& attribute,
                                       const ValueSet& from,
                                       const ValueSet& to,
                                       int64_t delta) const {
  if (to.empty() || from.empty()) return 0.0;
  MAROON_DCHECK(delta >= 0);
  auto attr_it = attributes_.find(attribute);
  if (attr_it == attributes_.end()) return 0.0;
  const AttributeModel& am = attr_it->second;
  if (delta == 0) return 1.0;  // Eq. 2 lifts to sets: every max term is 1.
  const std::vector<MappedValue> mapped_from = MapSet(am, attribute, from);
  const std::vector<MappedValue> mapped_to = MapSet(am, attribute, to);
  LookupTally tally;
  const double probability = SetProbabilityImpl(
      ResolveTable(am, delta), mapped_from, mapped_to, &tally);
  tally.Publish();
  return probability;
}

double TransitionModel::IntervalProbability(const Attribute& attribute,
                                            const ValueSet& from,
                                            const ValueSet& to,
                                            const Interval& from_interval,
                                            const Interval& to_interval) const {
  if (!from_interval.IsValid() || !to_interval.IsValid()) return 0.0;
  if (from.empty() || to.empty()) return 0.0;
  auto attr_it = attributes_.find(attribute);
  if (attr_it == attributes_.end()) return 0.0;
  const AttributeModel& am = attr_it->second;
  // Resolve the attribute state once; the delta loops below only pick the
  // per-delta table.
  const std::vector<MappedValue> mapped_from = MapSet(am, attribute, from);
  const std::vector<MappedValue> mapped_to = MapSet(am, attribute, to);
  LookupTally tally;

  const int64_t pair_count = from_interval.Length() * to_interval.Length();
  double total = 0.0;

  // Forward terms: t in from_interval, t' in to_interval, t' - t = d > 0.
  {
    const int64_t d_min = std::max<int64_t>(
        1, static_cast<int64_t>(to_interval.begin) - from_interval.end);
    const int64_t d_max =
        static_cast<int64_t>(to_interval.end) - from_interval.begin;
    for (int64_t d = d_min; d <= d_max; ++d) {
      const int64_t lo = std::max<int64_t>(
          from_interval.begin, static_cast<int64_t>(to_interval.begin) - d);
      const int64_t hi = std::min<int64_t>(
          from_interval.end, static_cast<int64_t>(to_interval.end) - d);
      const int64_t multiplicity = hi - lo + 1;
      if (multiplicity <= 0) continue;
      total += static_cast<double>(multiplicity) *
               SetProbabilityImpl(ResolveTable(am, d), mapped_from, mapped_to,
                                  &tally);
    }
  }
  // Backward terms: t' < t with gap g, contributing Pr(V', V, g) per Eq. 13.
  {
    const int64_t g_min = std::max<int64_t>(
        1, static_cast<int64_t>(from_interval.begin) - to_interval.end);
    const int64_t g_max =
        static_cast<int64_t>(from_interval.end) - to_interval.begin;
    for (int64_t g = g_min; g <= g_max; ++g) {
      const int64_t lo = std::max<int64_t>(
          to_interval.begin, static_cast<int64_t>(from_interval.begin) - g);
      const int64_t hi = std::min<int64_t>(
          to_interval.end, static_cast<int64_t>(from_interval.end) - g);
      const int64_t multiplicity = hi - lo + 1;
      if (multiplicity <= 0) continue;
      total += static_cast<double>(multiplicity) *
               SetProbabilityImpl(ResolveTable(am, g), mapped_to, mapped_from,
                                  &tally);
    }
  }
  if (options_.include_zero_delta_terms && from_interval.Overlaps(to_interval)) {
    // Eq. 2: Pr(..., 0) = 1 for each t = t' pair.
    total += static_cast<double>(
        from_interval.Intersect(to_interval).Length());
  }
  tally.Publish();
  return total / static_cast<double>(pair_count);
}

double TransitionModel::SequenceToStateProbability(
    const Attribute& attribute, const TemporalSequence& sequence,
    const ValueSet& to, const Interval& to_interval) const {
  if (sequence.empty()) return 0.0;
  double total = 0.0;
  for (const Triple& tr : sequence.triples()) {
    total += IntervalProbability(attribute, tr.values, to, tr.interval,
                                 to_interval);
  }
  return total / static_cast<double>(sequence.size());
}

int64_t TransitionModel::MaxLifespan(const Attribute& attribute) const {
  auto it = attributes_.find(attribute);
  return it != attributes_.end() ? it->second.max_lifespan : 0;
}

const TransitionTable* TransitionModel::table(const Attribute& attribute,
                                              int64_t delta) const {
  auto attr_it = attributes_.find(attribute);
  if (attr_it == attributes_.end()) return nullptr;
  auto it = attr_it->second.tables.find(delta);
  return it != attr_it->second.tables.end() ? &it->second : nullptr;
}

std::vector<int64_t> TransitionModel::DeltasFor(
    const Attribute& attribute) const {
  std::vector<int64_t> out;
  auto attr_it = attributes_.find(attribute);
  if (attr_it == attributes_.end()) return out;
  out.reserve(attr_it->second.tables.size());
  for (const auto& [delta, table] : attr_it->second.tables) {
    out.push_back(delta);
  }
  return out;
}

int64_t TransitionModel::ValueFrequency(const Attribute& attribute,
                                        const Value& value) const {
  auto attr_it = attributes_.find(attribute);
  if (attr_it == attributes_.end()) return 0;
  const AttributeModel& am = attr_it->second;
  const ValueId id = MapSet(am, attribute, {value})[0].id;
  return id != kNoValueId ? am.value_frequency[id].value_or(0) : 0;
}

namespace {

Status ParseInt64(const std::string& cell, int64_t* out) {
  auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), *out);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
    return Status::InvalidArgument("cannot parse integer '" + cell + "'");
  }
  return Status::OK();
}

constexpr char kFormatVersion[] = "maroon_transition_model_v1";

}  // namespace

std::string TransitionModel::Serialize() const {
  CsvWriter writer;
  writer.AppendRow({"format", kFormatVersion});
  writer.AppendRow({"option", "min_value_frequency",
                    std::to_string(options_.min_value_frequency)});
  writer.AppendRow({"option", "include_zero_delta_terms",
                    options_.include_zero_delta_terms ? "1" : "0"});
  writer.AppendRow({"option", "cap_unseen_by_support",
                    options_.cap_unseen_by_support ? "1" : "0"});
  for (const auto& [attribute, am] : attributes_) {
    writer.AppendRow({"lifespan", attribute,
                      std::to_string(am.max_lifespan)});
    for (ValueId id = 0; id < am.value_frequency.size(); ++id) {
      if (!am.value_frequency[id].has_value()) continue;
      writer.AppendRow({"frequency", attribute, am.dictionary->value(id),
                        std::to_string(*am.value_frequency[id])});
    }
    for (const auto& [delta, table] : am.tables) {
      for (const auto& [from, to, count] : table.Entries()) {
        writer.AppendRow({"entry", attribute, std::to_string(delta), from,
                          to, std::to_string(count)});
      }
    }
  }
  return writer.text();
}

Result<TransitionModel> TransitionModel::Deserialize(
    const std::string& text, TransitionModelOptions options) {
  MAROON_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  if (rows.empty() || rows[0].size() < 2 || rows[0][0] != "format" ||
      rows[0][1] != kFormatVersion) {
    return Status::InvalidArgument(
        "not a serialized transition model (missing format header)");
  }

  TransitionModel model;
  model.options_ = std::move(options);
  // Rows as parsed, per attribute; the dictionary needs every value first.
  struct ParsedAttribute {
    std::map<Value, int64_t> frequency;
    /// Δt -> (row index, count) of its entry rows.
    std::map<int64_t, std::vector<std::pair<size_t, int64_t>>> entries;
  };
  std::map<Attribute, ParsedAttribute> parsed;
  for (size_t i = 1; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.empty()) continue;
    const std::string& kind = row[0];
    if (kind == "option") {
      if (row.size() != 3) {
        return Status::InvalidArgument("malformed option row " +
                                       std::to_string(i));
      }
      int64_t value = 0;
      MAROON_RETURN_IF_ERROR(ParseInt64(row[2], &value));
      if (row[1] == "min_value_frequency") {
        model.options_.min_value_frequency = value;
      } else if (row[1] == "include_zero_delta_terms") {
        model.options_.include_zero_delta_terms = value != 0;
      } else if (row[1] == "cap_unseen_by_support") {
        model.options_.cap_unseen_by_support = value != 0;
      }
      // Unknown options are ignored for forward compatibility.
    } else if (kind == "lifespan") {
      if (row.size() != 3) {
        return Status::InvalidArgument("malformed lifespan row " +
                                       std::to_string(i));
      }
      int64_t lifespan = 0;
      MAROON_RETURN_IF_ERROR(ParseInt64(row[2], &lifespan));
      model.attributes_[row[1]].max_lifespan = lifespan;
      parsed[row[1]];
    } else if (kind == "frequency") {
      if (row.size() != 4) {
        return Status::InvalidArgument("malformed frequency row " +
                                       std::to_string(i));
      }
      int64_t count = 0;
      MAROON_RETURN_IF_ERROR(ParseInt64(row[3], &count));
      model.attributes_[row[1]];
      parsed[row[1]].frequency[row[2]] = count;
    } else if (kind == "entry") {
      if (row.size() != 6) {
        return Status::InvalidArgument("malformed entry row " +
                                       std::to_string(i));
      }
      int64_t delta = 0, count = 0;
      MAROON_RETURN_IF_ERROR(ParseInt64(row[2], &delta));
      MAROON_RETURN_IF_ERROR(ParseInt64(row[5], &count));
      if (count <= 0) {
        return Status::InvalidArgument("non-positive count in row " +
                                       std::to_string(i));
      }
      model.attributes_[row[1]];
      parsed[row[1]].entries[delta].emplace_back(i, count);
    } else {
      return Status::InvalidArgument("unknown row kind '" + kind + "'");
    }
  }
  for (auto& [attribute, am] : model.attributes_) {
    const ParsedAttribute& p = parsed[attribute];
    std::vector<Value> values;
    for (const auto& [value, count] : p.frequency) values.push_back(value);
    for (const auto& [delta, entries] : p.entries) {
      for (const auto& [row, count] : entries) {
        values.push_back(rows[row][3]);
        values.push_back(rows[row][4]);
      }
    }
    am.dictionary = std::make_shared<const ValueDictionary>(
        MakeValueSet(std::move(values)));
    am.value_frequency.resize(am.dictionary->size());
    for (const auto& [value, count] : p.frequency) {
      am.value_frequency[am.dictionary->Find(value)] = count;
    }
    for (const auto& [delta, entries] : p.entries) {
      std::vector<std::pair<TransitionTable::PackedPair, int64_t>> counts;
      counts.reserve(entries.size());
      for (const auto& [row, count] : entries) {
        counts.emplace_back(
            TransitionTable::Pack(am.dictionary->Find(rows[row][3]),
                                  am.dictionary->Find(rows[row][4])),
            count);
      }
      am.tables.emplace(delta,
                        TransitionTable(am.dictionary, std::move(counts)));
    }
  }
  return model;
}

}  // namespace maroon
