#include "similarity/record_similarity.h"

#include <algorithm>

#include "common/hash.h"
#include "common/string_util.h"
#include "similarity/string_metrics.h"

namespace maroon {

std::vector<std::string> ValueSetTokens(const ValueSet& values) {
  std::vector<std::string> tokens;
  for (const Value& v : values) {
    std::vector<std::string> words = TokenizeWords(v);
    tokens.insert(tokens.end(), std::make_move_iterator(words.begin()),
                  std::make_move_iterator(words.end()));
  }
  return tokens;
}

double SimilarityCalculator::ValueSetSimilarity(const ValueSet& a,
                                                const ValueSet& b) const {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a.size() == 1 && b.size() == 1) {
    return JaroWinklerSimilarity(a[0], b[0],
                                 options_.jaro_winkler_prefix_weight);
  }
  if (tfidf_ != nullptr) {
    return tfidf_->CosineSimilarity(ValueSetTokens(a), ValueSetTokens(b));
  }
  return BestPairAlignment(a, b);
}

double SimilarityCalculator::BestPairAlignment(const ValueSet& a,
                                               const ValueSet& b) const {
  // Symmetric average of each value's best Jaro-Winkler match on the other
  // side; a standard generalization of pairwise string similarity to sets.
  double total = 0.0;
  for (const Value& v : a) {
    double best = 0.0;
    for (const Value& w : b) {
      best = std::max(best, JaroWinklerSimilarity(
                                v, w, options_.jaro_winkler_prefix_weight));
    }
    total += best;
  }
  for (const Value& w : b) {
    double best = 0.0;
    for (const Value& v : a) {
      best = std::max(best, JaroWinklerSimilarity(
                                v, w, options_.jaro_winkler_prefix_weight));
    }
    total += best;
  }
  return total / static_cast<double>(a.size() + b.size());
}

double SimilarityCalculator::RecordSimilarity(const TemporalRecord& a,
                                              const TemporalRecord& b) const {
  double total = 0.0;
  size_t shared = 0;
  for (const auto& [attr, values_a] : a.values()) {
    if (!b.HasAttribute(attr)) continue;
    total += ValueSetSimilarity(values_a, b.GetValue(attr));
    ++shared;
  }
  return shared == 0 ? 0.0 : total / static_cast<double>(shared);
}

size_t ValueSetSimilarityMemo::ValueSetHash::operator()(
    const ValueSet& values) const {
  Fnv1a hash;
  for (const Value& v : values) hash.Str(v);
  return static_cast<size_t>(hash.hash());
}

ValueSetSimilarityMemo::SetId ValueSetSimilarityMemo::Intern(
    const ValueSet& values) {
  const auto [it, inserted] =
      ids_.try_emplace(values, static_cast<SetId>(entries_.size()));
  if (inserted) entries_.emplace_back().values = &it->first;
  return it->second;
}

ValueSetSimilarityMemo::InternedValues ValueSetSimilarityMemo::Intern(
    const std::map<Attribute, ValueSet>& values) {
  InternedValues interned;
  interned.reserve(values.size());
  for (const auto& [attribute, set] : values) {
    interned.emplace_back(attribute, Intern(set));
  }
  return interned;
}

double ValueSetSimilarityMemo::Similarity(SetId a, SetId b) {
  const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
  const auto [it, inserted] = scores_.try_emplace(key, 0.0);
  if (!inserted) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  it->second = Compute(a, b);
  return it->second;
}

double ValueSetSimilarityMemo::Compute(SetId a, SetId b) {
  const ValueSet& x = *entries_[a].values;
  const ValueSet& y = *entries_[b].values;
  if (similarity_.tfidf_model() == nullptr || x.empty() || y.empty() ||
      (x.size() == 1 && y.size() == 1)) {
    return similarity_.ValueSetSimilarity(x, y);
  }
  // TfIdfModel::CosineSimilarity on the cached vectors.
  const Entry& vx = Vectorized(a);
  const Entry& vy = Vectorized(b);
  if (vx.empty_bag && vy.empty_bag) return 1.0;
  if (vx.empty_bag || vy.empty_bag) return 0.0;
  return SparseCosine(vx.vector, vy.vector, vx.norm_sq, vy.norm_sq);
}

const ValueSetSimilarityMemo::Entry& ValueSetSimilarityMemo::Vectorized(
    SetId id) {
  Entry& entry = entries_[id];
  if (!entry.vectorized) {
    const std::vector<std::string> tokens = ValueSetTokens(*entry.values);
    entry.empty_bag = tokens.empty();
    entry.vector = similarity_.tfidf_model()->Vectorize(tokens);
    entry.norm_sq = SquaredNorm(entry.vector);
    entry.vectorized = true;
  }
  return entry;
}

double ValueSetSimilarityMemo::MeanSimilarity(const InternedValues& record,
                                              const InternedValues& state) {
  double total = 0.0;
  size_t shared = 0;
  auto s = state.begin();
  for (const auto& [attribute, id] : record) {
    while (s != state.end() && s->first < attribute) ++s;
    if (s == state.end()) break;
    if (s->first != attribute) continue;
    total += Similarity(id, s->second);
    ++shared;
  }
  return shared == 0 ? 0.0 : total / static_cast<double>(shared);
}

}  // namespace maroon
