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
