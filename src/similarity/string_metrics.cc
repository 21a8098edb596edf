#include "similarity/string_metrics.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>

namespace maroon {

namespace {

// Match flags for both strings of a JaroSimilarity call live on the stack
// while the two lengths sum to at most this; longer pairs use the heap.
constexpr size_t kStackMatchFlags = 128;

// The longest `b` that JaroBitParallel takes: one bit per byte of `b`.
constexpr size_t kMaxBitParallel = 64;

// Half the window: a[i] may match b[j] only for |i - j| <= this.
size_t JaroWindow(size_t len_a, size_t len_b) {
  return std::max<size_t>(1, std::max(len_a, len_b) / 2) - 1;
}

double JaroScore(size_t matches, size_t transpositions, size_t len_a,
                 size_t len_b) {
  const double m = static_cast<double>(matches);
  return (m / len_a + m / len_b + (m - transpositions / 2.0) / m) / 3.0;
}

// JaroSimilarity for non-empty `a` and `b` with b.size() <= 64. Bit j of
// mask[c] is set iff b[j] == c, so each a[i] takes the lowest set bit of
// mask[a[i]] & ~matched_b within its window: the first unmatched j in
// [lo, hi) that the general loop below picks, hence the same matches, the
// same transpositions and the same double.
double JaroBitParallel(std::string_view a, std::string_view b) {
  const size_t len_a = a.size();
  const size_t len_b = b.size();
  const size_t window = JaroWindow(len_a, len_b);

  // Only the entries of bytes that occur in `a` or `b` are read, and each is
  // zeroed first; the rest of the 2 KB table is never touched.
  uint64_t mask[256];
  for (const char c : a) mask[static_cast<unsigned char>(c)] = 0;
  for (const char c : b) mask[static_cast<unsigned char>(c)] = 0;
  for (size_t j = 0; j < len_b; ++j) {
    mask[static_cast<unsigned char>(b[j])] |= uint64_t{1} << j;
  }

  uint64_t matched_b = 0;
  std::array<char, kMaxBitParallel> matched_chars{};  // a[i] of each match
  size_t matches = 0;
  for (size_t i = 0; i < len_a; ++i) {
    const size_t lo = i > window ? i - window : 0;
    if (lo >= len_b) break;  // this and every later window lie past b's end
    const size_t hi = i + window + 1;  // mask has no bit at or above len_b
    uint64_t candidates = mask[static_cast<unsigned char>(a[i])] &
                          ~matched_b & (~uint64_t{0} << lo);
    if (hi < kMaxBitParallel) candidates &= (uint64_t{1} << hi) - 1;
    if (candidates == 0) continue;
    matched_b |= uint64_t{1} << std::countr_zero(candidates);
    matched_chars[matches++] = a[i];
  }
  if (matches == 0) return 0.0;

  // The k-th match of `a` pairs with the k-th set bit of matched_b.
  size_t transpositions = 0;
  size_t k = 0;
  for (uint64_t bits = matched_b; bits != 0; bits &= bits - 1) {
    if (matched_chars[k++] != b[std::countr_zero(bits)]) ++transpositions;
  }
  return JaroScore(matches, transpositions, len_a, len_b);
}

}  // namespace

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  if (b.size() <= kMaxBitParallel) return JaroBitParallel(a, b);

  const size_t len_a = a.size();
  const size_t len_b = b.size();
  const size_t window = JaroWindow(len_a, len_b);

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
  return JaroScore(matches, transpositions, len_a, len_b);
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
