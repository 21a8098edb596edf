#include "similarity/tfidf.h"

#include <cmath>
#include <set>

#include "common/float_compare.h"

namespace maroon {

void TfIdfModel::Fit(const std::vector<std::vector<std::string>>& corpus) {
  document_frequency_.clear();
  num_documents_ = 0;
  for (const auto& doc : corpus) AddDocument(doc);
}

void TfIdfModel::AddDocument(const std::vector<std::string>& tokens) {
  ++num_documents_;
  std::set<std::string> unique(tokens.begin(), tokens.end());
  for (const std::string& t : unique) ++document_frequency_[t];
}

double TfIdfModel::Idf(const std::string& token) const {
  auto it = document_frequency_.find(token);
  const double df = it != document_frequency_.end()
                        ? static_cast<double>(it->second)
                        : 0.0;
  return std::log((1.0 + static_cast<double>(num_documents_)) / (1.0 + df)) +
         1.0;
}

SparseVector TfIdfModel::Vectorize(
    const std::vector<std::string>& tokens) const {
  SparseVector tf;
  for (const std::string& t : tokens) tf[t] += 1.0;
  double norm_sq = 0.0;
  for (auto& [token, weight] : tf) {
    weight *= Idf(token);
    norm_sq += weight * weight;
  }
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (auto& [token, weight] : tf) weight *= inv;
  }
  return tf;
}

double TfIdfModel::CosineSimilarity(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b) const {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  return SparseCosine(Vectorize(a), Vectorize(b));
}

double SquaredNorm(const SparseVector& v) {
  double norm_sq = 0.0;
  for (const auto& [t, w] : v) norm_sq += w * w;
  return norm_sq;
}

double SparseCosine(const SparseVector& a, const SparseVector& b) {
  const double norm_sq_a = SquaredNorm(a);
  const double norm_sq_b = SquaredNorm(b);
  const SparseVector& small = a.size() <= b.size() ? a : b;
  const SparseVector& large = a.size() <= b.size() ? b : a;
  double dot = 0.0;
  for (const auto& [token, weight] : small) {
    auto it = large.find(token);
    if (it != large.end()) dot += weight * it->second;
  }
  if (ApproxZero(norm_sq_a) || ApproxZero(norm_sq_b)) return 0.0;
  return dot / std::sqrt(norm_sq_a * norm_sq_b);
}

}  // namespace maroon
