#ifndef MAROON_SIMILARITY_TFIDF_H_
#define MAROON_SIMILARITY_TFIDF_H_

#include <string>
#include <unordered_map>
#include <vector>

namespace maroon {

/// A sparse TF-IDF vector: token -> weight.
using SparseVector = std::unordered_map<std::string, double>;

/// TF-IDF vectorizer over tokenized documents (the paper's metric for
/// set-valued attributes such as co-author lists or interests).
///
/// Fit once on a corpus, then vectorize arbitrary token bags:
///   tf(t, d)  = count of t in d
///   idf(t)    = ln((1 + N) / (1 + df(t))) + 1    (smoothed; unseen tokens
///               get the maximum idf as if df = 0)
///   weight    = tf * idf, then L2-normalized per document.
class TfIdfModel {
 public:
  TfIdfModel() = default;

  /// Computes document frequencies from `corpus` (each document a token bag).
  /// May be called once; subsequent calls replace the fitted state.
  void Fit(const std::vector<std::vector<std::string>>& corpus);

  /// Adds a single document's tokens to the document-frequency counts.
  /// Useful for streaming construction; weights reflect all added docs.
  void AddDocument(const std::vector<std::string>& tokens);

  /// L2-normalized TF-IDF vector for a token bag.
  SparseVector Vectorize(const std::vector<std::string>& tokens) const;

  /// Cosine similarity of the TF-IDF vectors of two token bags, in [0, 1].
  /// Two empty bags yield 1; one empty bag yields 0.
  double CosineSimilarity(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) const;

  /// ln((1 + N) / (1 + df(token))) + 1.
  double Idf(const std::string& token) const;

  size_t NumDocuments() const { return num_documents_; }
  size_t VocabularySize() const { return document_frequency_.size(); }

 private:
  std::unordered_map<std::string, size_t> document_frequency_;
  size_t num_documents_ = 0;
};

/// Σ w² over `v`, summed in `v`'s iteration order.
double SquaredNorm(const SparseVector& v);

/// Cosine similarity between two sparse vectors (not assumed normalized).
double SparseCosine(const SparseVector& a, const SparseVector& b);

}  // namespace maroon

#endif  // MAROON_SIMILARITY_TFIDF_H_
