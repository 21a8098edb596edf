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

/// Configuration for value-set and record similarity.
struct SimilarityOptions {
  /// Winkler prefix weight for pairwise value comparison.
  double jaro_winkler_prefix_weight = 0.1;
  /// Value sets whose token bags reach this cosine are "the same state".
  /// Used by callers (clusterers) as a default decision threshold.
  double value_match_threshold = 0.8;
};

/// Computes similarities between value sets and between records.
///
/// Implements the paper's §5.1 setup: set-valued attributes are compared with
/// TF-IDF cosine over their token bags; the similarity of a pair of scalar
/// values is Jaro-Winkler. When no TF-IDF model is supplied (or an attribute
/// is single-valued on both sides) the calculator falls back to best-pair
/// Jaro-Winkler alignment.
class SimilarityCalculator {
 public:
  explicit SimilarityCalculator(SimilarityOptions options = {})
      : options_(options) {}

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

  const SimilarityOptions& options() const { return options_; }

 private:
  double BestPairAlignment(const ValueSet& a, const ValueSet& b) const;

  SimilarityOptions options_;
  const TfIdfModel* tfidf_ = nullptr;
};

/// Memo of `SimilarityCalculator::ValueSetSimilarity` for one Phase I run
/// (Algorithm 2). Each distinct value set is interned to a dense id; the
/// TF-IDF vector of each id, its squared norm and the score of each ordered
/// id pair are computed once. Every score is exactly what
/// `ValueSetSimilarity(a, b)` returns: the function is pure, keys keep the
/// argument order, and the cosine runs `SparseCosine` on the same
/// `Vectorize` outputs that `TfIdfModel::CosineSimilarity` builds, with
/// norms summed over those same vector objects.
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
  explicit ValueSetSimilarityMemo(const SimilarityCalculator& similarity)
      : similarity_(similarity) {}

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

  /// Similarity lookups answered from the pair cache, and those computed.
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  struct ValueSetHash {
    size_t operator()(const ValueSet& values) const;
  };
  struct Entry {
    const ValueSet* values = nullptr;  // the key in ids_; node keys never move
    bool vectorized = false;
    bool empty_bag = false;  // no token in any value (TF-IDF path only)
    SparseVector vector;
    double norm_sq = 0.0;  // SquaredNorm(vector)
  };

  double Compute(SetId a, SetId b);
  const Entry& Vectorized(SetId id);

  const SimilarityCalculator& similarity_;
  std::unordered_map<ValueSet, SetId, ValueSetHash> ids_;
  std::vector<Entry> entries_;
  std::unordered_map<uint64_t, double> scores_;  // (a << 32 | b) -> score
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Flattens a value set into a token bag (lower-cased alphanumeric words of
/// every value concatenated).
std::vector<std::string> ValueSetTokens(const ValueSet& values);

}  // namespace maroon

#endif  // MAROON_SIMILARITY_RECORD_SIMILARITY_H_
