#include "similarity/record_similarity.h"

#include <algorithm>
#include <cmath>

#include "common/float_compare.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "similarity/string_metrics.h"

namespace maroon {

namespace {
/// Winkler's prefix weight p for every pairwise value comparison.
constexpr double kWinklerPrefixWeight = 0.1;
}  // namespace

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
    return JaroWinklerSimilarity(a[0], b[0], kWinklerPrefixWeight);
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
      best = std::max(best,
                      JaroWinklerSimilarity(v, w, kWinklerPrefixWeight));
    }
    total += best;
  }
  for (const Value& w : b) {
    double best = 0.0;
    for (const Value& v : a) {
      best = std::max(best,
                      JaroWinklerSimilarity(v, w, kWinklerPrefixWeight));
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

namespace {

// Slots of a fresh pair table (log2); it doubles whenever it would pass half
// full.
constexpr int kInitialScoreBits = 6;

}  // namespace

ValueSetSimilarityMemo::ValueSetSimilarityMemo(
    const SimilarityCalculator& similarity)
    : similarity_(similarity),
      scores_(size_t{1} << kInitialScoreBits),
      score_bits_(kInitialScoreBits) {}

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

size_t ValueSetSimilarityMemo::Probe(uint64_t key) const {
  const size_t mask = scores_.size() - 1;
  size_t slot =
      static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - score_bits_));
  while (scores_[slot].key != key && scores_[slot].key != kEmptyKey) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void ValueSetSimilarityMemo::GrowScores() {
  std::vector<Slot> old(size_t{1} << (score_bits_ + 1));
  old.swap(scores_);
  ++score_bits_;
  for (const Slot& slot : old) {
    if (slot.key != kEmptyKey) scores_[Probe(slot.key)] = slot;
  }
}

double ValueSetSimilarityMemo::Similarity(SetId a, SetId b) {
  const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
  size_t slot = Probe(key);
  if (scores_[slot].key == key) {
    ++hits_;
    return scores_[slot].score;
  }
  ++misses_;
  const double score = Compute(a, b);
  if (2 * (num_scores_ + 1) > scores_.size()) {
    GrowScores();
    slot = Probe(key);
  }
  scores_[slot] = Slot{key, score};
  ++num_scores_;
  return score;
}

double ValueSetSimilarityMemo::Compute(SetId a, SetId b) {
  const ValueSet& x = *entries_[a].values;
  const ValueSet& y = *entries_[b].values;
  if (similarity_.tfidf_model() == nullptr || x.empty() || y.empty() ||
      (x.size() == 1 && y.size() == 1)) {
    return similarity_.ValueSetSimilarity(x, y);
  }
  // TfIdfModel::CosineSimilarity, i.e. SparseCosine(Vectorize(x),
  // Vectorize(y)), on the cached terms.
  const Entry& vx = Vectorized(a);
  const Entry& vy = Vectorized(b);
  if (vx.terms.empty() && vy.terms.empty()) return 1.0;
  if (vx.terms.empty() || vy.terms.empty()) return 0.0;
  const Entry& small = vx.terms.size() <= vy.terms.size() ? vx : vy;
  const Entry& large = vx.terms.size() <= vy.terms.size() ? vy : vx;
  double dot = 0.0;
  for (const auto& [token, weight] : small.terms) {
    // A token whose bit is clear in `large` cannot be there; skipping it
    // skips an addition the map walk would not make either.
    if (((large.id_bits >> (token % 64)) & 1) == 0) continue;
    const auto it = std::lower_bound(
        large.by_id.begin(), large.by_id.end(), token,
        [](const Term& term, uint32_t id) { return term.first < id; });
    if (it != large.by_id.end() && it->first == token) {
      dot += weight * it->second;
    }
  }
  if (ApproxZero(vx.norm_sq) || ApproxZero(vy.norm_sq)) return 0.0;
  return dot / std::sqrt(vx.norm_sq * vy.norm_sq);
}

const ValueSetSimilarityMemo::Entry& ValueSetSimilarityMemo::Vectorized(
    SetId id) {
  Entry& entry = entries_[id];
  if (!entry.vectorized) {
    const SparseVector vector =
        similarity_.tfidf_model()->Vectorize(ValueSetTokens(*entry.values));
    entry.norm_sq = SquaredNorm(vector);
    entry.terms.reserve(vector.size());
    for (const auto& [token, weight] : vector) {
      const uint32_t token_id =
          token_ids_
              .try_emplace(token, static_cast<uint32_t>(token_ids_.size()))
              .first->second;
      entry.terms.emplace_back(token_id, weight);
      entry.id_bits |= uint64_t{1} << (token_id % 64);
    }
    entry.by_id = entry.terms;
    std::sort(entry.by_id.begin(), entry.by_id.end());
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
