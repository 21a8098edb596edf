#include "similarity/string_metrics.h"

#include <algorithm>
#include <array>
#include <memory>

namespace maroon {

namespace {

// Match flags for both strings of a JaroSimilarity call live on the stack
// while the two lengths sum to at most this; longer pairs use the heap.
constexpr size_t kStackMatchFlags = 128;

}  // namespace

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;

  const size_t len_a = a.size();
  const size_t len_b = b.size();
  const size_t window =
      std::max<size_t>(1, std::max(len_a, len_b) / 2) - 1;

  std::array<bool, kStackMatchFlags> stack_flags{};
  std::unique_ptr<bool[]> heap_flags;
  bool* matched_a = stack_flags.data();
  if (len_a + len_b > kStackMatchFlags) {
    heap_flags = std::make_unique<bool[]>(len_a + len_b);  // all false
    matched_a = heap_flags.get();
  }
  bool* matched_b = matched_a + len_a;

  size_t matches = 0;
  for (size_t i = 0; i < len_a; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(len_b, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (matched_b[j] || a[i] != b[j]) continue;
      matched_a[i] = matched_b[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;

  // Count transpositions between the matched subsequences.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < len_a; ++i) {
    if (!matched_a[i]) continue;
    while (!matched_b[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / len_a + m / len_b + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_weight, size_t max_prefix) {
  prefix_weight = std::clamp(prefix_weight, 0.0, 0.25);
  const double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), max_prefix});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * prefix_weight * (1.0 - jaro);
}

}  // namespace maroon
