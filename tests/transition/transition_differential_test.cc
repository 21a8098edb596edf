// Differential exactness tests for TransitionModel. Its tables are keyed by
// the ids of a per-attribute value dictionary; the reference below is the
// string-keyed Eq. 1-8, 12 and 13 computed straight from the model's own
// Entries() and serialized frequencies, with every floating-point sum in
// value order. Every answer must be equal as a double, not merely close.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/csv.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "datagen/dblp_generator.h"
#include "datagen/recruitment_generator.h"
#include "obs/metrics.h"
#include "testing/paper_example.h"
#include "transition/transition_model.h"
#include "transition/value_mapper.h"

namespace maroon {
namespace {

// ------------------------------------------------------------ reference

/// One Δt table, string-keyed, with the aggregates of Eq. 1 and 3-8.
struct ReferenceTable {
  std::map<Value, std::map<Value, int64_t>> rows;
  std::map<Value, int64_t> row_sums;
  std::map<Value, int64_t> column_sums;
  std::map<Value, double> min_row_probability;
  int64_t total = 0;
  int64_t self_total = 0;
  double expected_change = 0.0;

  explicit ReferenceTable(const TransitionTable& table) {
    for (const auto& [from, to, count] : table.Entries()) {
      rows[from][to] += count;
    }
    for (const auto& [from, row] : rows) {
      for (const auto& [to, count] : row) {
        row_sums[from] += count;
        column_sums[to] += count;
        total += count;
        if (from == to) self_total += count;
      }
    }
    double expected = 0.0;
    for (const auto& [from, row] : rows) {
      const double row_sum = static_cast<double>(row_sums[from]);
      double min_p = 1.0;
      for (const auto& [to, count] : row) {
        min_p = std::min(min_p, static_cast<double>(count) / row_sum);
        if (from == to) continue;
        const double p = static_cast<double>(count) / row_sum;
        expected += p * static_cast<double>(count);
      }
      min_row_probability[from] = min_p;
    }
    if (total - self_total > 0) {
      expected_change = expected / static_cast<double>(total - self_total);
    }
  }

  static int64_t Get(const std::map<Value, int64_t>& m, const Value& v) {
    auto it = m.find(v);
    return it != m.end() ? it->second : 0;
  }
};

/// Eq. 1-8, 12 and 13 for one attribute, over string keys only.
class ReferenceModel {
 public:
  ReferenceModel(const TransitionModel& model, const Attribute& attribute)
      : attribute_(attribute),
        options_(model.options()),
        lifespan_(model.MaxLifespan(attribute)) {
    for (int64_t delta : model.DeltasFor(attribute)) {
      tables_.emplace(delta, ReferenceTable(*model.table(attribute, delta)));
    }
    auto rows = ParseCsv(model.Serialize());
    EXPECT_TRUE(rows.ok());
    for (const auto& row : *rows) {
      if (row[0] == "frequency" && row[1] == attribute) {
        frequency_[row[2]] = std::stoll(row[3]);
      }
    }
  }

  double Probability(const Value& v, const Value& w, int64_t delta) const {
    if (delta == 0) return 1.0;
    const ReferenceTable* table = Resolve(delta);
    if (table == nullptr || table->total == 0) return 0.0;
    return Pair(*table, Map({v})[0], Map({w})[0]);
  }

  double SetProbability(const ValueSet& from, const ValueSet& to,
                        int64_t delta) const {
    if (from.empty() || to.empty()) return 0.0;
    if (delta == 0) return 1.0;
    return Set(Resolve(delta), Map(from), Map(to));
  }

  double IntervalProbability(const ValueSet& from, const ValueSet& to,
                             const Interval& fi, const Interval& ti) const {
    if (!fi.IsValid() || !ti.IsValid() || from.empty() || to.empty()) {
      return 0.0;
    }
    const std::vector<Mapped> mf = Map(from);
    const std::vector<Mapped> mt = Map(to);
    double total = 0.0;
    // Forward terms t' - t = d > 0, then backward terms t - t' = g > 0,
    // each weighted by its number of instant pairs.
    for (int64_t d = std::max<int64_t>(1, int64_t{ti.begin} - fi.end);
         d <= int64_t{ti.end} - fi.begin; ++d) {
      const int64_t lo = std::max<int64_t>(fi.begin, int64_t{ti.begin} - d);
      const int64_t hi = std::min<int64_t>(fi.end, int64_t{ti.end} - d);
      if (hi - lo + 1 <= 0) continue;
      total += static_cast<double>(hi - lo + 1) * Set(Resolve(d), mf, mt);
    }
    for (int64_t g = std::max<int64_t>(1, int64_t{fi.begin} - ti.end);
         g <= int64_t{fi.end} - ti.begin; ++g) {
      const int64_t lo = std::max<int64_t>(ti.begin, int64_t{fi.begin} - g);
      const int64_t hi = std::min<int64_t>(ti.end, int64_t{fi.end} - g);
      if (hi - lo + 1 <= 0) continue;
      total += static_cast<double>(hi - lo + 1) * Set(Resolve(g), mt, mf);
    }
    if (options_.include_zero_delta_terms && fi.Overlaps(ti)) {
      total += static_cast<double>(fi.Intersect(ti).Length());
    }
    return total / static_cast<double>(fi.Length() * ti.Length());
  }

 private:
  struct Mapped {
    Value value;
    bool frequent = false;
  };

  std::vector<Mapped> Map(const ValueSet& values) const {
    std::vector<Mapped> out;
    for (const Value& v : values) {
      Mapped m;
      m.value = options_.mapper ? options_.mapper->Map(attribute_, v) : v;
      m.frequent = ReferenceTable::Get(frequency_, m.value) >=
                   options_.min_value_frequency;
      out.push_back(m);
    }
    return out;
  }

  const ReferenceTable* Resolve(int64_t delta) const {
    if (tables_.empty()) return nullptr;
    if (lifespan_ >= 2 && delta >= lifespan_) delta = lifespan_ - 1;
    auto it = tables_.upper_bound(delta);
    return it != tables_.begin() ? &std::prev(it)->second : &it->second;
  }

  double Rare(double probability, int64_t support) const {
    if (!options_.cap_unseen_by_support) return probability;
    return std::min(probability, 1.0 / (static_cast<double>(support) + 1.0));
  }

  double Pair(const ReferenceTable& t, const Mapped& from,
              const Mapped& to) const {
    const bool from_seen = from.frequent && t.rows.count(from.value) > 0;
    const bool to_seen = to.frequent && t.column_sums.count(to.value) > 0;
    const int64_t row_sum = ReferenceTable::Get(t.row_sums, from.value);
    if (from_seen && to_seen) {
      const auto& row = t.rows.at(from.value);
      auto it = row.find(to.value);
      if (it != row.end()) {
        return static_cast<double>(it->second) /
               static_cast<double>(row_sum);  // Eq. 1
      }
      return Rare(t.min_row_probability.at(from.value), row_sum);  // Eq. 3
    }
    if (from_seen) {
      return Rare(t.min_row_probability.at(from.value), row_sum);  // Eq. 4
    }
    if (to_seen) {  // Eq. 5
      return static_cast<double>(
                 ReferenceTable::Get(t.column_sums, to.value)) /
             static_cast<double>(t.total);
    }
    if (from.value == to.value) {  // Eq. 6
      return static_cast<double>(t.self_total) /
             static_cast<double>(t.total);
    }
    return Rare(t.expected_change, t.total - t.self_total);  // Eq. 7-8
  }

  double Set(const ReferenceTable* table, const std::vector<Mapped>& from,
             const std::vector<Mapped>& to) const {
    if (table == nullptr || table->total == 0) return 0.0;
    double total = 0.0;
    for (const Mapped& w : to) {
      double best = 0.0;
      for (const Mapped& v : from) best = std::max(best, Pair(*table, v, w));
      total += best;
    }
    return total / static_cast<double>(to.size());
  }

  Attribute attribute_;
  TransitionModelOptions options_;
  int64_t lifespan_ = 0;
  std::map<int64_t, ReferenceTable> tables_;
  std::map<Value, int64_t> frequency_;
};

// -------------------------------------------------------------- corpora

/// Two values no generator emits: distinct, outside every vocabulary.
const Value kUnseenA = "zz unseen value one";
const Value kUnseenB = "zz unseen value two";

struct Corpus {
  Dataset dataset;
  ProfileSet training;
  ProfileSet held_out;
};

Corpus MakeCorpus(bool dblp) {
  Corpus corpus;
  if (dblp) {
    DblpOptions options;
    options.seed = 5;
    options.num_entities = 30;
    options.num_names = 3;
    corpus.dataset = GenerateDblpCorpus(options).dataset;
  } else {
    RecruitmentOptions options;
    options.seed = 5;
    options.num_entities = 40;
    options.num_names = 12;
    corpus.dataset = GenerateRecruitmentDataset(options);
  }
  size_t i = 0;
  for (const auto& [id, target] : corpus.dataset.targets()) {
    (i++ % 3 == 0 ? corpus.held_out : corpus.training)
        .push_back(target.ground_truth);
  }
  return corpus;
}

/// Merges the first three trained values of each attribute into one
/// category; the last attribute also sends every unmapped value to a default
/// category, so out-of-vocabulary queries on it land in the vocabulary.
std::shared_ptr<const ValueMapper> MakeMapper(const Corpus& corpus) {
  const TransitionModel plain = TransitionModel::Train(
      corpus.training, corpus.dataset.attributes());
  auto mapper = std::make_shared<TableValueMapper>();
  for (const Attribute& attribute : corpus.dataset.attributes()) {
    const std::vector<int64_t> deltas = plain.DeltasFor(attribute);
    if (deltas.empty()) continue;
    int merged = 0;
    for (const auto& [from, to, count] :
         plain.table(attribute, deltas.front())->Entries()) {
      if (merged == 3) break;
      if (mapper->Map(attribute, from) != from) continue;
      mapper->AddMapping(attribute, from, "merged " + attribute);
      ++merged;
    }
  }
  mapper->SetDefaultCategory(corpus.dataset.attributes().back(),
                             "default category");
  return mapper;
}

struct Query {
  Attribute attribute;
  ValueSet from;
  ValueSet to;
  Interval from_interval;
  Interval to_interval;
};

/// Interval queries between triples of held-out profiles, plus the same
/// shapes with an out-of-vocabulary value added or substituted on either
/// side, and the two distinct out-of-vocabulary values against each other.
std::vector<Query> MakeQueries(const Corpus& corpus) {
  std::vector<Query> queries;
  for (const Attribute& attribute : corpus.dataset.attributes()) {
    size_t profiles = 0;
    for (const EntityProfile& profile : corpus.held_out) {
      const std::vector<Triple>& triples =
          profile.sequence(attribute).triples();
      if (triples.size() < 2 || ++profiles > 4) continue;
      for (size_t i = 0; i + 1 < triples.size() && i < 3; ++i) {
        const Triple& a = triples[i];
        const Triple& b = triples[i + 1];
        queries.push_back({attribute, a.values, b.values, a.interval,
                           b.interval});
        queries.push_back({attribute, b.values, a.values, b.interval,
                           a.interval});
        queries.push_back({attribute, a.values, a.values, a.interval,
                           b.interval});
        queries.push_back({attribute,
                           ValueSetUnion(a.values, MakeValueSet({kUnseenA})),
                           b.values, a.interval, b.interval});
        queries.push_back({attribute, a.values, MakeValueSet({kUnseenB}),
                           a.interval, b.interval});
        queries.push_back({attribute, MakeValueSet({kUnseenA}),
                           MakeValueSet({kUnseenB}), a.interval,
                           b.interval});
        queries.push_back({attribute, MakeValueSet({kUnseenA}),
                           MakeValueSet({kUnseenA}), a.interval,
                           b.interval});
      }
    }
  }
  return queries;
}

// ------------------------------------------------------- differential

struct DifferentialCase {
  bool dblp;
  bool mapper;
  bool cap_unseen_by_support;
  bool include_zero_delta_terms;
  int64_t min_value_frequency;
};

std::string CaseName(
    const ::testing::TestParamInfo<DifferentialCase>& info) {
  const DifferentialCase& c = info.param;
  return std::string(c.dblp ? "Dblp" : "Recruitment") +
         (c.mapper ? "Mapped" : "Raw") +
         (c.cap_unseen_by_support ? "Cap" : "") +
         (c.include_zero_delta_terms ? "Zero" : "") +
         // "Uncached" keeps the case names stable across the removal of the
         // transition-probability memo, which once doubled this grid.
         "UncachedMinFreq" + std::to_string(c.min_value_frequency);
}

std::vector<DifferentialCase> AllCases() {
  std::vector<DifferentialCase> cases;
  for (bool dblp : {false, true}) {
    for (bool mapper : {false, true}) {
      for (bool cap : {false, true}) {
        for (bool zero : {false, true}) {
          // min_value_frequency 6 sends the rarer values to case 4.
          for (int64_t min_frequency : {1, 6}) {
            cases.push_back({dblp, mapper, cap, zero, min_frequency});
          }
        }
      }
    }
  }
  return cases;
}

class TransitionDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(TransitionDifferentialTest, EqualsStringKeyedReference) {
  const DifferentialCase& c = GetParam();
  const Corpus corpus = MakeCorpus(c.dblp);
  TransitionModelOptions options;
  options.cap_unseen_by_support = c.cap_unseen_by_support;
  options.include_zero_delta_terms = c.include_zero_delta_terms;
  options.min_value_frequency = c.min_value_frequency;
  if (c.mapper) options.mapper = MakeMapper(corpus);
  const TransitionModel model = TransitionModel::Train(
      corpus.training, corpus.dataset.attributes(), options);

  std::map<Attribute, ReferenceModel> references;
  size_t rare_values = 0;
  for (const Attribute& attribute : corpus.dataset.attributes()) {
    references.emplace(attribute, ReferenceModel(model, attribute));
    for (int64_t delta : model.DeltasFor(attribute)) {
      for (const auto& [from, to, count] :
           model.table(attribute, delta)->Entries()) {
        if (model.ValueFrequency(attribute, from) < 6) ++rare_values;
      }
    }
  }
  // The min_value_frequency 6 cases must reach values below it.
  EXPECT_GT(rare_values, 0u);

  const std::vector<Query> queries = MakeQueries(corpus);
  ASSERT_GT(queries.size(), 50u);
  for (const Query& q : queries) {
    const ReferenceModel& ref = references.at(q.attribute);
    EXPECT_EQ(model.IntervalProbability(q.attribute, q.from, q.to,
                                        q.from_interval, q.to_interval),
              ref.IntervalProbability(q.from, q.to, q.from_interval,
                                      q.to_interval));
    for (int64_t delta : {0, 1, 2, 3, 5, 8, 40}) {
      EXPECT_EQ(model.SetProbability(q.attribute, q.from, q.to, delta),
                ref.SetProbability(q.from, q.to, delta));
      EXPECT_EQ(model.Probability(q.attribute, q.from.front(), q.to.back(),
                                  delta),
                ref.Probability(q.from.front(), q.to.back(), delta));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOptions, TransitionDifferentialTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// Many threads sharing one trained model answer exactly what one thread
// does.
TEST(TransitionModelThreadsTest, EightThreadQueriesEqualSerial) {
  for (bool dblp : {false, true}) {
    const Corpus corpus = MakeCorpus(dblp);
    const std::vector<Query> queries = MakeQueries(corpus);
    const TransitionModel model =
        TransitionModel::Train(corpus.training, corpus.dataset.attributes());
    std::vector<double> expected;
    for (const Query& q : queries) {
      expected.push_back(model.IntervalProbability(
          q.attribute, q.from, q.to, q.from_interval, q.to_interval));
    }

    std::vector<double> got(4 * queries.size(), -1.0);
    ThreadPool::Shared(8)->ParallelFor(
        got.size(), 8, [&](int /*strand*/, size_t i) {
          const Query& q = queries[i % queries.size()];
          got[i] = model.IntervalProbability(q.attribute, q.from, q.to,
                                             q.from_interval, q.to_interval);
        });
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i % queries.size()]) << "query " << i;
    }
  }
}

// --------------------------------------------------------------- counters

/// A fixed query set over the running example's careers: exact hits, every
/// smoothing case, and repeated set and interval queries.
void RunFixedQueries(const TransitionModel& model) {
  const Attribute& title = testing::kTitle;
  for (int64_t delta : {1, 3, 7}) {
    model.Probability(title, "Engineer", "Manager", delta);
    model.Probability(title, "Manager", "IT Contractor", delta);
    model.Probability(title, "Manager", "Engineer", delta);
    model.Probability(title, "Intern", "Director", delta);
    model.Probability(title, "Intern", "Intern", delta);
    model.Probability(title, "Intern", "Janitor", delta);
  }
  const ValueSet mixed = MakeValueSet({"Engineer", "Intern"});
  const ValueSet targets = MakeValueSet({"Director", "Manager", "Janitor"});
  for (int pass = 0; pass < 2; ++pass) {
    model.SetProbability(title, mixed, targets, 4);
    model.IntervalProbability(title, mixed, targets, Interval(2000, 2003),
                              Interval(2004, 2009));
    model.IntervalProbability(title, targets, mixed, Interval(2001, 2006),
                              Interval(2003, 2004));
  }
}

TEST(TransitionCounterTest, FixedQueriesPublishPinnedCounterDeltas) {
  // Golden deltas: each counter counts one event per table lookup, however
  // the counts are batched on their way to the registry.
  const std::vector<std::pair<std::string, int64_t>> pinned = {
      {"maroon.transition.case_exact", 33},
      {"maroon.transition.case1_unseen_pair", 37},
      {"maroon.transition.case2_unseen_destination", 41},
      {"maroon.transition.case3_unseen_origin", 61},
      {"maroon.transition.case4_both_unseen", 38},
  };
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const TransitionModel model = TransitionModel::Train(
      testing::CareerTrainingProfiles(), {testing::kTitle});
  std::vector<int64_t> before;
  for (const auto& [name, delta] : pinned) {
    before.push_back(registry.GetCounter(name)->value());
  }
  RunFixedQueries(model);
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(registry.GetCounter(pinned[i].first)->value() - before[i],
              pinned[i].second)
        << pinned[i].first;
  }
}

// ---------------------------------------------------------- serialization

uint64_t HashText(const std::string& text) {
  Fnv1a hash;
  hash.Bytes(text);
  return hash.hash();
}

TEST(TransitionSerializationTest, TrainedRecruitmentModelTextIsPinned) {
  RecruitmentOptions options;
  options.seed = 7;
  options.num_entities = 120;
  options.num_names = 40;
  const Dataset dataset = GenerateRecruitmentDataset(options);
  ProfileSet profiles;
  for (const auto& [id, target] : dataset.targets()) {
    profiles.push_back(target.ground_truth);
  }
  const std::string text =
      TransitionModel::Train(profiles, dataset.attributes()).Serialize();
  EXPECT_EQ(text.size(), 912934u);
  EXPECT_EQ(HashText(text), 0x88a914c7c8982625ull);
}

TEST(TransitionSerializationTest, SerializeOfDeserializeIsIdentity) {
  for (bool dblp : {false, true}) {
    const Corpus corpus = MakeCorpus(dblp);
    const std::string text =
        TransitionModel::Train(corpus.training, corpus.dataset.attributes())
            .Serialize();
    auto restored = TransitionModel::Deserialize(text);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->Serialize(), text);
  }
}

// Written by hand: Manager and Director have entry rows but no frequency
// row, rows are out of order, and one (from, to, Δt) entry is split in two.
constexpr char kHandWrittenModel[] =
    "format,maroon_transition_model_v1\n"
    "option,min_value_frequency,1\n"
    "option,include_zero_delta_terms,0\n"
    "option,cap_unseen_by_support,1\n"
    "lifespan,Title,6\n"
    "entry,Title,2,Manager,Director,1\n"
    "frequency,Title,Engineer,4\n"
    "entry,Title,1,Manager,Manager,5\n"
    "entry,Title,1,Engineer,Manager,2\n"
    "entry,Title,1,Engineer,Manager,1\n"
    "entry,Title,2,Engineer,Manager,2\n"
    "frequency,Title,Analyst,3\n";

TEST(TransitionSerializationTest, HandWrittenTextWithoutFrequencyRowsLoads) {
  auto model = TransitionModel::Deserialize(kHandWrittenModel);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->Serialize(),
            "format,maroon_transition_model_v1\n"
            "option,min_value_frequency,1\n"
            "option,include_zero_delta_terms,0\n"
            "option,cap_unseen_by_support,1\n"
            "lifespan,Title,6\n"
            "frequency,Title,Analyst,3\n"
            "frequency,Title,Engineer,4\n"
            "entry,Title,1,Engineer,Manager,3\n"
            "entry,Title,1,Manager,Manager,5\n"
            "entry,Title,2,Engineer,Manager,2\n"
            "entry,Title,2,Manager,Director,1\n");
  EXPECT_EQ(model->ValueFrequency("Title", "Manager"), 0);
  EXPECT_EQ(model->table("Title", 1)->Count("Engineer", "Manager"), 3);
  // Manager and Director have no frequency row, so they are rare:
  // Engineer -> Manager is case 2 (row minimum 1 capped at 1/(3+1)),
  // Manager -> Manager case 4's recurrence (5/8) and Manager -> Director
  // case 4's change (E(X)/3 = 1 capped at 1/(3+1)).
  EXPECT_EQ(model->Probability("Title", "Engineer", "Manager", 1), 0.25);
  EXPECT_EQ(model->Probability("Title", "Manager", "Manager", 1), 0.625);
  EXPECT_EQ(model->Probability("Title", "Manager", "Director", 2), 0.25);

  TransitionModelOptions options;
  options.min_value_frequency = 0;  // overridden by the text's option row
  auto lenient = TransitionModel::Deserialize(kHandWrittenModel, options);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->options().min_value_frequency, 1);
}

}  // namespace
}  // namespace maroon
