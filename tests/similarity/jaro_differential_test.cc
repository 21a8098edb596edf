// Differential test of JaroSimilarity against the plain two-loop algorithm
// it replaced for strings of up to 64 bytes: every score must be the same
// double, not merely close.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/dblp_generator.h"
#include "datagen/recruitment_generator.h"
#include "similarity/string_metrics.h"

namespace maroon {
namespace {

// The reference: match each a[i] to the first unmatched equal b[j] inside
// the window, then count transpositions between the matched subsequences.
double ReferenceJaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;

  const size_t len_a = a.size();
  const size_t len_b = b.size();
  const size_t window =
      std::max<size_t>(1, std::max(len_a, len_b) / 2) - 1;

  const auto flags = std::make_unique<bool[]>(len_a + len_b);  // all false
  bool* matched_a = flags.get();
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

std::string RandomString(Random& rng, size_t length,
                         const std::string& alphabet) {
  std::string s(length, '\0');
  for (char& c : s) {
    c = alphabet[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
  }
  return s;
}

void ExpectSameAsReference(std::string_view a, std::string_view b) {
  EXPECT_EQ(JaroSimilarity(a, b), ReferenceJaro(a, b))
      << "a=\"" << a << "\" b=\"" << b << "\"";
}

TEST(JaroDifferentialTest, RandomStringsOverSmallAlphabets) {
  // Small alphabets make repeated bytes, so many a[i] have several
  // candidates in their window and the lowest-j choice matters.
  Random rng(20150531);
  for (size_t letters = 1; letters <= 6; ++letters) {
    const std::string alphabet = std::string("abcdef").substr(0, letters);
    for (int trial = 0; trial < 4000; ++trial) {
      const std::string a =
          RandomString(rng, static_cast<size_t>(rng.UniformInt(0, 80)),
                       alphabet);
      const std::string b =
          RandomString(rng, static_cast<size_t>(rng.UniformInt(0, 80)),
                       alphabet);
      ExpectSameAsReference(a, b);
      ExpectSameAsReference(b, a);
    }
  }
}

TEST(JaroDifferentialTest, BytesAboveAscii) {
  // Bytes >= 0x80 are negative as char; they must index the mask table
  // like any other byte.
  Random rng(7);
  const std::string alphabet = {'\x80', '\xc3', '\xa9', '\xff', 'a', '\0'};
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string a = RandomString(
        rng, static_cast<size_t>(rng.UniformInt(0, 80)), alphabet);
    const std::string b = RandomString(
        rng, static_cast<size_t>(rng.UniformInt(0, 80)), alphabet);
    ExpectSameAsReference(a, b);
  }
  ExpectSameAsReference("Jos\xc3\xa9 Garc\xc3\xad" "a", "Jose Garcia");
}

TEST(JaroDifferentialTest, SecondStringOfSixtyFourAndSixtyFiveBytes) {
  // 64 bytes is the longest `b` the bit-parallel path takes; 65 falls back
  // to the loop. Pair both with `a` of every length up to 130 bytes.
  Random rng(64);
  for (const size_t len_b : {63u, 64u, 65u}) {
    for (size_t len_a = 1; len_a <= 130; ++len_a) {
      for (const char* alphabet : {"ab", "abcdef"}) {
        const std::string a = RandomString(rng, len_a, alphabet);
        const std::string b = RandomString(rng, len_b, alphabet);
        ExpectSameAsReference(a, b);
        ExpectSameAsReference(b, a);
      }
    }
  }
  // All 64 bits of the match mask set, and the top bit alone.
  ExpectSameAsReference(std::string(65, 'a'), std::string(64, 'a'));
  ExpectSameAsReference(std::string(40, 'a'), std::string(64, 'a'));
  ExpectSameAsReference(std::string(63, 'b') + "a",
                        std::string(63, 'c') + "a");
}

// Every ordered pair of the distinct values held by the records of one name
// block: the single-valued cells Phase I scores by Jaro-Winkler, and the
// elements of multi-valued ones (coauthor names).
void ExpectSameOnBlockValues(const Dataset& dataset) {
  const EntityId& entity = dataset.targets().begin()->first;
  std::set<std::string> values;
  for (RecordId id : dataset.CandidatesFor(entity)) {
    for (const auto& [attribute, set] : dataset.record(id).values()) {
      values.insert(set.begin(), set.end());
    }
  }
  ASSERT_GT(values.size(), 20u);
  for (const std::string& a : values) {
    for (const std::string& b : values) ExpectSameAsReference(a, b);
  }
}

TEST(JaroDifferentialTest, DblpNameBlockValues) {
  DblpOptions options;
  options.seed = 11;
  options.num_entities = 60;
  options.num_names = 10;
  ExpectSameOnBlockValues(GenerateDblpCorpus(options).dataset);
}

TEST(JaroDifferentialTest, RecruitmentNameBlockValues) {
  RecruitmentOptions options;
  options.seed = 11;
  options.num_entities = 60;
  options.num_names = 10;
  ExpectSameOnBlockValues(GenerateRecruitmentDataset(options));
}

}  // namespace
}  // namespace maroon
