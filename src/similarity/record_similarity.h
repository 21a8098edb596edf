#ifndef MAROON_SIMILARITY_RECORD_SIMILARITY_H_
#define MAROON_SIMILARITY_RECORD_SIMILARITY_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/temporal_record.h"
#include "core/value.h"
#include "similarity/tfidf.h"

namespace maroon {

/// Computes similarities between value sets and between records.
///
/// Implements the paper's §5.1 setup: set-valued attributes are compared with
/// TF-IDF cosine over their token bags; the similarity of a pair of scalar
/// values is Jaro-Winkler with Winkler's prefix weight 0.1. When no TF-IDF
/// model is supplied (or an attribute is single-valued on both sides) the
/// calculator falls back to best-pair Jaro-Winkler alignment.
class SimilarityCalculator {
 public:
  /// Attaches a fitted TF-IDF model used for set-valued comparisons. The
  /// model must outlive this calculator. Pass nullptr to detach.
  void SetTfIdfModel(const TfIdfModel* model) { tfidf_ = model; }
  const TfIdfModel* tfidf_model() const { return tfidf_; }

  /// Similarity of two value sets in [0, 1].
  ///
  /// - both empty: 1 (vacuous agreement);
  /// - one empty: 0;
  /// - both singleton: Jaro-Winkler of the two values;
  /// - otherwise: TF-IDF cosine of token bags if a model is attached, else
  ///   symmetric best-pair Jaro-Winkler alignment.
  double ValueSetSimilarity(const ValueSet& a, const ValueSet& b) const;

  /// Mean ValueSetSimilarity over the attributes present in *both* records;
  /// 0 if they share no attribute.
  double RecordSimilarity(const TemporalRecord& a,
                          const TemporalRecord& b) const;

 private:
  double BestPairAlignment(const ValueSet& a, const ValueSet& b) const;

  const TfIdfModel* tfidf_ = nullptr;
};

/// Memo of `SimilarityCalculator::ValueSetSimilarity` for one Phase I run
/// (Algorithm 2). Each distinct value set is interned to a dense id; the
/// TF-IDF terms of each id, its squared norm and the score of each ordered
/// id pair are computed once. Every score is exactly what
/// `ValueSetSimilarity(a, b)` returns: the function is pure and keys keep the
/// argument order. The cosine is `SparseCosine` run on token ids: each set
/// keeps its `Vectorize` map's terms as (token id, weight) in that map's
/// iteration order plus a copy sorted by id, and the dot product walks the
/// smaller set's terms in that recorded order, so it adds the same products
/// in the same order as `TfIdfModel::CosineSimilarity`, with norms summed
/// over the same maps.
///
/// Not thread-safe. It is meant to live on the stack of one call, so it
/// needs no lock and no eviction; its memory goes when the call returns.
class ValueSetSimilarityMemo {
 public:
  using SetId = uint32_t;
  /// An attribute -> value-set map with every set interned, in ascending
  /// attribute order (the order of the std::map it was interned from).
  using InternedValues = std::vector<std::pair<Attribute, SetId>>;

  /// `similarity` and its TF-IDF model must outlive the memo.
  explicit ValueSetSimilarityMemo(const SimilarityCalculator& similarity);

  /// Dense id of `values`; equal sets get equal ids.
  SetId Intern(const ValueSet& values);
  InternedValues Intern(const std::map<Attribute, ValueSet>& values);

  /// `ValueSetSimilarity` of the sets interned as `a` and `b`.
  double Similarity(SetId a, SetId b);
  double Similarity(const ValueSet& a, const ValueSet& b) {
    return Similarity(Intern(a), Intern(b));
  }

  /// Mean Similarity over the attributes present in both `record` and
  /// `state`, summed in `record`'s attribute order (PARTITION compares on
  /// the attributes two items share); 0 if they share no attribute.
  double MeanSimilarity(const InternedValues& record,
                        const InternedValues& state);

  /// Similarity lookups answered from the pair table, and those computed.
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  struct ValueSetHash {
    size_t operator()(const ValueSet& values) const;
  };
  /// One TF-IDF term: (token id, weight).
  using Term = std::pair<uint32_t, double>;
  struct Entry {
    const ValueSet* values = nullptr;  // the key in ids_; node keys never move
    bool vectorized = false;
    // The terms of Vectorize(ValueSetTokens(*values)) in the map's
    // iteration order, and the same terms sorted by token id; empty iff the
    // token bag is (TF-IDF path only).
    std::vector<Term> terms;
    std::vector<Term> by_id;
    uint64_t id_bits = 0;  // bit id % 64 set for each term
    double norm_sq = 0.0;  // SquaredNorm of that map
  };
  // a == b == 2^32 - 1 would need 2^32 interned sets.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  /// A slot of the open-addressing pair table.
  struct Slot {
    uint64_t key = kEmptyKey;  // a << 32 | b
    double score = 0.0;
  };

  double Compute(SetId a, SetId b);
  const Entry& Vectorized(SetId id);
  /// The slot holding `key`, or the empty slot where it belongs.
  size_t Probe(uint64_t key) const;
  void GrowScores();

  const SimilarityCalculator& similarity_;
  std::unordered_map<ValueSet, SetId, ValueSetHash> ids_;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, uint32_t> token_ids_;
  // Linear probing over a power-of-two table at most half full; the home
  // slot is the top `score_bits_` bits of key * 2^64/phi, because the low
  // bits of a key depend on `b` alone.
  std::vector<Slot> scores_;
  int score_bits_ = 0;
  size_t num_scores_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Flattens a value set into a token bag (lower-cased alphanumeric words of
/// every value concatenated).
std::vector<std::string> ValueSetTokens(const ValueSet& values);

}  // namespace maroon

#endif  // MAROON_SIMILARITY_RECORD_SIMILARITY_H_
