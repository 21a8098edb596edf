#include "similarity/string_metrics.h"

#include <gtest/gtest.h>

namespace maroon {
namespace {

TEST(JaroTest, IdenticalAndEmpty) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", "abc"), 0.0);
}

TEST(JaroTest, NoCommonCharacters) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroTest, ClassicReferenceValues) {
  // Winkler's canonical examples.
  EXPECT_NEAR(JaroSimilarity("MARTHA", "MARHTA"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DIXON", "DICKSONX"), 0.766667, 1e-5);
  EXPECT_NEAR(JaroSimilarity("DWAYNE", "DUANE"), 0.822222, 1e-5);
}

TEST(JaroTest, Symmetric) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("CRATE", "TRACE"),
                   JaroSimilarity("TRACE", "CRATE"));
  EXPECT_DOUBLE_EQ(JaroSimilarity("DIXON", "DICKSONX"),
                   JaroSimilarity("DICKSONX", "DIXON"));
}

TEST(JaroTest, LongStringsAroundTheStackFlagBound) {
  // A second string of at most 64 bytes takes the bit-parallel path; a
  // longer one takes the loop, whose match flags sit on the stack while the
  // two lengths sum to at most 128 and on the heap above that. The scores
  // follow the closed forms on every path. n a's against (n - 1) a's and a
  // 'b': n - 1 matches, none transposed.
  for (size_t n : {63u, 64u, 65u, 100u}) {
    const std::string a(n, 'a');
    const std::string b = std::string(n - 1, 'a') + "b";
    const double m = static_cast<double>(n - 1);
    const double expected = (m / n + m / n + 1.0) / 3.0;
    EXPECT_DOUBLE_EQ(JaroSimilarity(a, b), expected) << "n=" << n;
    EXPECT_DOUBLE_EQ(JaroSimilarity(b, a), expected) << "n=" << n;
  }
  // Lengths 64 + 64 (bit-parallel) and 64 + 65 (loop, heap flags): "ab..."
  // vs "ba..." has every character matched and one transposition.
  const std::string ab = "ab" + std::string(62, 'x');
  const std::string ba = "ba" + std::string(62, 'x');
  EXPECT_DOUBLE_EQ(JaroSimilarity(ab, ba), (1.0 + 1.0 + 63.0 / 64.0) / 3.0);
  const std::string ba_long = ba + "x";
  EXPECT_DOUBLE_EQ(JaroSimilarity(ab, ba_long),
                   (1.0 + 64.0 / 65.0 + 63.0 / 64.0) / 3.0);
  // A short string against a 201-character one (heap, window 99): a match
  // inside the window counts, one outside it does not.
  const std::string near = std::string(50, 'a') + "b" + std::string(150, 'a');
  const std::string far = std::string(200, 'a') + "b";
  EXPECT_DOUBLE_EQ(JaroSimilarity("b", near), (1.0 + 1.0 / 201.0 + 1.0) / 3.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("b", far), 0.0);
}

TEST(JaroWinklerTest, ClassicReferenceValues) {
  EXPECT_NEAR(JaroWinklerSimilarity("MARTHA", "MARHTA"), 0.961111, 1e-5);
  EXPECT_NEAR(JaroWinklerSimilarity("DIXON", "DICKSONX"), 0.813333, 1e-5);
}

TEST(JaroWinklerTest, PrefixBoostsScore) {
  // Same Jaro base but different shared prefixes.
  const double with_prefix = JaroWinklerSimilarity("prefixed", "prefixes");
  const double jaro_only = JaroSimilarity("prefixed", "prefixes");
  EXPECT_GT(with_prefix, jaro_only);
}

TEST(JaroWinklerTest, PrefixWeightClampedToQuarter) {
  // Weight above 0.25 must not push similarity past the 0.25-weight value.
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abcd", "abce", /*prefix_weight=*/0.9),
                   JaroWinklerSimilarity("abcd", "abce", /*prefix_weight=*/0.25));
}

TEST(JaroWinklerTest, BoundedByOne) {
  EXPECT_LE(JaroWinklerSimilarity("aaaa", "aaab", 0.25), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("same", "same"), 1.0);
}

}  // namespace
}  // namespace maroon
