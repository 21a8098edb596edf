#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "lint/concurrency.h"
#include "lint/linter.h"
#include "lint/rules.h"
#include "lint/symbols.h"

namespace maroon {
namespace lint {
namespace {

constexpr char kRoot[] = MAROON_SOURCE_DIR;

/// Lints one fixture under tests/lint/testdata/ through the full RunLint
/// path (explicit file args bypass the testdata exclusion).
LintResult LintFixture(const std::string& name) {
  LintOptions options;
  options.root = kRoot;
  options.paths = {std::string(kRoot) + "/tests/lint/testdata/" + name};
  auto result = RunLint(options);
  MAROON_CHECK(result.ok()) << result.status();
  return *std::move(result);
}

/// Lints in-memory content (unit tests for lexer-level behavior).
std::vector<Finding> LintSource(const std::string& rel_path,
                                const std::string& content) {
  const SourceFile file = MakeSourceFile(rel_path, content);
  const FunctionRegistry registry = CollectFunctionRegistry(file.tokens);
  std::vector<Finding> findings;
  LintFile(file, registry, &findings);
  return findings;
}

/// Runs only the scope-aware concurrency rules (R011-R014) on in-memory
/// content, including any lock-order cycles within the file itself.
std::vector<Finding> LintConcurrency(const std::string& rel_path,
                                     const std::string& content) {
  const SourceFile file = MakeSourceFile(rel_path, content);
  const FileSymbols symbols = BuildFileSymbols(file);
  std::map<std::string, ClassModel> classes;
  MergeClassModels(symbols.classes, &classes);
  ConcurrencyContext context;
  context.classes = &classes;
  std::vector<Finding> findings;
  LockOrderGraph graph;
  CheckConcurrency(file, symbols, context, &findings, &graph);
  for (const Finding& f : graph.CheckCycles()) findings.push_back(f);
  return findings;
}

std::vector<int> LinesOf(const LintResult& result, const std::string& rule) {
  std::vector<int> lines;
  for (const Finding& f : result.findings) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  return lines;
}

std::string Render(const LintResult& result) { return RenderText(result); }

TEST(LintRuleTest, R001CatchesUnguardedResultAccess) {
  const LintResult result = LintFixture("r001_unguarded.cc");
  EXPECT_EQ(LinesOf(result, "R001"), (std::vector<int>{11, 16}))
      << Render(result);
  // Guarded, checked, and suppressed functions stay silent; no other rule
  // fires on this fixture.
  EXPECT_EQ(result.findings.size(), 2u) << Render(result);
}

TEST(LintRuleTest, R002CatchesDiscardedStatusReturns) {
  const LintResult result = LintFixture("r002_discarded.cc");
  EXPECT_EQ(LinesOf(result, "R002"), (std::vector<int>{18, 19, 20}))
      << Render(result);
  EXPECT_EQ(result.findings.size(), 3u) << Render(result);
}

TEST(LintRuleTest, R003CatchesFloatEquality) {
  const LintResult result = LintFixture("r003_float_eq.cc");
  EXPECT_EQ(LinesOf(result, "R003"), (std::vector<int>{7, 8}))
      << Render(result);
  EXPECT_EQ(result.findings.size(), 2u) << Render(result);
}

TEST(LintRuleTest, R004CatchesBannedApis) {
  const LintResult result = LintFixture("r004_banned_api.cc");
  EXPECT_EQ(LinesOf(result, "R004"), (std::vector<int>{4, 9, 10, 11}))
      << Render(result);
  EXPECT_EQ(result.findings.size(), 4u) << Render(result);
}

TEST(LintRuleTest, R005CatchesHeaderHygiene) {
  const LintResult result = LintFixture("r005_bad_guard.h");
  EXPECT_EQ(LinesOf(result, "R005"), (std::vector<int>{3, 6}))
      << Render(result);
  const Finding& guard = result.findings.front();
  EXPECT_NE(
      guard.message.find("MAROON_TESTS_LINT_TESTDATA_R005_BAD_GUARD_H_"),
      std::string::npos)
      << guard.message;
}

TEST(LintRuleTest, R005SuppressionsSilenceBothSites) {
  const LintResult result = LintFixture("r005_suppressed.h");
  EXPECT_TRUE(result.findings.empty()) << Render(result);
}

TEST(LintRuleTest, R006CatchesRawAssert) {
  const LintResult result = LintFixture("r006_assert.cc");
  EXPECT_EQ(LinesOf(result, "R006"), (std::vector<int>{8}))
      << Render(result);
  EXPECT_EQ(result.findings.size(), 1u) << Render(result);
}

TEST(LintRuleTest, R006ExemptsSrcCommon) {
  const std::string content = "void F(int n) { assert(n > 0); }\n";
  EXPECT_TRUE(LintSource("src/common/scratch.cc", content).empty());
  EXPECT_EQ(LintSource("src/core/scratch.cc", content).size(), 1u);
}

TEST(LintRuleTest, R007CatchesSystemClockNow) {
  const LintResult result = LintFixture("r007_system_clock.cc");
  EXPECT_EQ(LinesOf(result, "R007"), (std::vector<int>{9}))
      << Render(result);
  EXPECT_EQ(result.findings.size(), 1u) << Render(result);
}

TEST(LintRuleTest, R007ExemptsObsAndCommon) {
  const std::string content =
      "auto T() { return std::chrono::system_clock::now(); }\n";
  EXPECT_TRUE(LintSource("src/obs/scratch.cc", content).empty());
  EXPECT_TRUE(LintSource("src/common/scratch.cc", content).empty());
  EXPECT_EQ(LintSource("src/core/scratch.cc", content).size(), 1u);
  EXPECT_EQ(LintSource("tools/scratch.cpp", content).size(), 1u);
}

TEST(LintRuleTest, R008CatchesRawThreads) {
  const LintResult result = LintFixture("r008_raw_thread.cc");
  EXPECT_EQ(LinesOf(result, "R008"), (std::vector<int>{10, 15, 19}))
      << Render(result);
  EXPECT_EQ(result.findings.size(), 3u) << Render(result);
}

TEST(LintRuleTest, R008ExemptsThreadPool) {
  const std::string content =
      "#include <thread>\n"
      "void F() { std::thread t([] {}); t.join(); }\n";
  // Count R008 findings specifically: header paths also run R005 hygiene.
  const auto r008_count = [&](const std::string& rel_path) {
    size_t n = 0;
    for (const Finding& f : LintSource(rel_path, content)) {
      if (f.rule == "R008") ++n;
    }
    return n;
  };
  EXPECT_EQ(r008_count("src/common/thread_pool.cc"), 0u);
  EXPECT_EQ(r008_count("src/common/thread_pool.h"), 0u);
  EXPECT_EQ(r008_count("src/common/scratch.cc"), 1u);
  EXPECT_EQ(r008_count("src/matching/scratch.cc"), 1u);
  EXPECT_EQ(r008_count("tools/scratch.cpp"), 1u);
}

TEST(LintRuleTest, R009CatchesStdEndl) {
  const LintResult result = LintFixture("r009_endl.cc");
  EXPECT_EQ(LinesOf(result, "R009"), (std::vector<int>{9, 13}))
      << Render(result);
  EXPECT_EQ(result.findings.size(), 2u) << Render(result);
}

TEST(LintRuleTest, R009ExemptsTestsAndToolsButNotTestdata) {
  const std::string content =
      "#include <iostream>\n"
      "void F() { std::cout << 1 << std::endl; }\n";
  EXPECT_EQ(LintSource("src/obs/scratch.cc", content).size(), 1u);
  EXPECT_EQ(LintSource("src/core/scratch.cc", content).size(), 1u);
  EXPECT_TRUE(LintSource("tests/obs/scratch_test.cc", content).empty());
  EXPECT_TRUE(LintSource("tools/scratch.cpp", content).empty());
  // Fixture trees under tests/ and tools/ exist to exercise the rules, so
  // the exemption does not reach them.
  EXPECT_EQ(LintSource("tests/lint/testdata/scratch.cc", content).size(), 1u);
}

TEST(LintRuleTest, R010CatchesDiscardedIoReturns) {
  const LintResult result = LintFixture("r010_unchecked_io.cc");
  EXPECT_EQ(LinesOf(result, "R010"), (std::vector<int>{9, 10, 11, 12}))
      << Render(result);
  EXPECT_EQ(result.findings.size(), 4u) << Render(result);
}

TEST(LintRuleTest, R010ExemptsTestsAndToolsButNotTestdata) {
  const std::string content =
      "#include <cstdio>\n"
      "void F(FILE* f) { fflush(f); }\n";
  EXPECT_EQ(LintSource("src/common/scratch.cc", content).size(), 1u);
  EXPECT_EQ(LintSource("src/core/scratch.cc", content).size(), 1u);
  EXPECT_TRUE(LintSource("tests/core/scratch_test.cc", content).empty());
  EXPECT_TRUE(LintSource("tools/scratch.cpp", content).empty());
  EXPECT_EQ(LintSource("tests/lint/testdata/scratch.cc", content).size(), 1u);
}

TEST(LintRuleTest, R011CatchesUnguardedFieldAccessAndRequiresViolations) {
  const LintResult result = LintFixture("r011_guarded_by.cc");
  EXPECT_EQ(LinesOf(result, "R011"), (std::vector<int>{11, 15}))
      << Render(result);
  // Locked, MAROON_REQUIRES-annotated, and suppressed accesses stay silent.
  EXPECT_EQ(result.findings.size(), 2u) << Render(result);
}

TEST(LintRuleTest, R012CatchesLockOrderCycles) {
  const LintResult result = LintFixture("r012_lock_order.cc");
  EXPECT_EQ(LinesOf(result, "R012"), (std::vector<int>{13, 18}))
      << Render(result);
  // scoped_lock arguments create no inter-argument edges; the suppressed
  // reverse edge is excluded from cycle detection.
  EXPECT_EQ(result.findings.size(), 2u) << Render(result);
}

TEST(LintRuleTest, R013CatchesBlockingIoUnderLock) {
  const LintResult result = LintFixture("r013_blocking_io.cc");
  EXPECT_EQ(LinesOf(result, "R013"), (std::vector<int>{15, 20}))
      << Render(result);
  EXPECT_EQ(result.findings.size(), 2u) << Render(result);
}

TEST(LintRuleTest, R014CatchesRelaxedAtomicsOutsideAllowlist) {
  const LintResult result = LintFixture("r014_relaxed_atomic.cc");
  EXPECT_EQ(LinesOf(result, "R014"), (std::vector<int>{10}))
      << Render(result);
  EXPECT_EQ(result.findings.size(), 1u) << Render(result);
}

TEST(LintRuleTest, R014AllowlistCoversCounterFiles) {
  const std::string content =
      "#include <atomic>\n"
      "std::atomic<int> c{0};\n"
      "void F() { c.fetch_add(1, std::memory_order_relaxed); }\n";
  EXPECT_TRUE(LintConcurrency("src/obs/metrics.cc", content).empty());
  EXPECT_TRUE(LintConcurrency("tests/obs/scratch_test.cc", content).empty());
  EXPECT_EQ(LintConcurrency("src/core/scratch.cc", content).size(), 1u);
  EXPECT_EQ(
      LintConcurrency("src/transition/transition_table.cc", content).size(),
      1u);
  EXPECT_EQ(
      LintConcurrency("tests/lint/testdata/scratch.cc", content).size(), 1u);
}

TEST(LintRuleTest, R001CatchesAutoBindingFromResultCall) {
  const std::string content =
      "#include \"common/result.h\"\n"
      "Result<int> MakeValue();\n"
      "int F() {\n"
      "  auto r = MakeValue();\n"
      "  return *r;\n"
      "}\n";
  const std::vector<Finding> findings =
      LintSource("src/core/scratch.cc", content);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "R001");
  EXPECT_EQ(findings[0].line, 5);
}

TEST(LintRuleTest, R001AutoBindingGuardedIsClean) {
  const std::string content =
      "#include \"common/result.h\"\n"
      "Result<int> MakeValue();\n"
      "int F() {\n"
      "  const auto r = MakeValue();\n"
      "  if (!r.ok()) return -1;\n"
      "  return *r;\n"
      "}\n";
  EXPECT_TRUE(LintSource("src/core/scratch.cc", content).empty());
}

TEST(LintRuleTest, R001AutoBindingFromStatusFunctionIsNotArmed) {
  // Status (no payload) has no unguarded-access hazard; only Result<T>
  // producers arm the auto-binding check.
  const std::string content =
      "#include \"common/status.h\"\n"
      "Status DoThing();\n"
      "bool F() {\n"
      "  auto s = DoThing();\n"
      "  return s.ok();\n"
      "}\n";
  EXPECT_TRUE(LintSource("src/core/scratch.cc", content).empty());
}

TEST(LintBaselineTest, RoundTripMatchesAndRemovesEverything) {
  LintResult result;
  result.findings.push_back({"R011", "src/a.cc", 10, 3, "msg one"});
  result.findings.push_back({"R013", "src/b.cc", 20, 5, "msg two"});
  const std::string path = ::testing::TempDir() + "/maroon_baseline.txt";
  {
    std::ofstream out(path);
    out << SerializeBaseline(result);
  }
  auto baseline = LoadBaseline(path);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const std::vector<BaselineEntry> stale = ApplyBaseline(*baseline, &result);
  EXPECT_TRUE(stale.empty());
  EXPECT_TRUE(result.findings.empty());
}

TEST(LintBaselineTest, StaleEntriesAreReturned) {
  Baseline baseline;
  baseline.entries.push_back({"R011", "src/a.cc", 10});
  LintResult result;  // the baselined finding no longer occurs
  const std::vector<BaselineEntry> stale = ApplyBaseline(baseline, &result);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "R011");
  EXPECT_EQ(stale[0].file, "src/a.cc");
  EXPECT_EQ(stale[0].line, 10);
}

TEST(LintBaselineTest, UnmatchedFindingsSurvive) {
  Baseline baseline;
  baseline.entries.push_back({"R011", "src/a.cc", 10});
  LintResult result;
  result.findings.push_back({"R011", "src/a.cc", 10, 1, "matched"});
  result.findings.push_back({"R012", "src/c.cc", 7, 1, "not baselined"});
  const std::vector<BaselineEntry> stale = ApplyBaseline(baseline, &result);
  EXPECT_TRUE(stale.empty());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "R012");
}

TEST(LintBaselineTest, EachEntryConsumesOneFinding) {
  Baseline baseline;
  baseline.entries.push_back({"R011", "src/a.cc", 10});
  LintResult result;
  result.findings.push_back({"R011", "src/a.cc", 10, 1, "first"});
  result.findings.push_back({"R011", "src/a.cc", 10, 9, "second, same line"});
  const std::vector<BaselineEntry> stale = ApplyBaseline(baseline, &result);
  EXPECT_TRUE(stale.empty());
  EXPECT_EQ(result.findings.size(), 1u);
}

TEST(LintBaselineTest, MalformedLinesAreErrors) {
  const std::string path = ::testing::TempDir() + "/maroon_bad_baseline.txt";
  {
    std::ofstream out(path);
    out << "# comment is fine\n\nR011 src/a.cc:notanumber message\n";
  }
  EXPECT_FALSE(LoadBaseline(path).ok());
}

TEST(LintLexerTest, LiteralsAndCommentsAreNotCode) {
  // Violation-shaped text inside strings, raw strings, and comments must
  // never fire a rule.
  const std::string content =
      "const char* a = \"assert(x); p == 1.0; atoi(s);\";\n"
      "const char* b = R\"(assert(y); q != 0.5)\";\n"
      "// assert(z); r == 2.0; rand();\n"
      "/* strtod(s, nullptr); using namespace std; */\n";
  EXPECT_TRUE(LintSource("src/core/scratch.cc", content).empty());
}

TEST(LintLexerTest, TokenizerTracksLinesThroughBlockComments) {
  const std::string content = "/* line one\nline two */\nassert(n);\n";
  const std::vector<Finding> findings =
      LintSource("src/core/scratch.cc", content);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintRuleTest, ExpectedGuardFollowsConvention) {
  EXPECT_EQ(ExpectedGuard("src/common/result.h"), "MAROON_COMMON_RESULT_H_");
  EXPECT_EQ(ExpectedGuard("tests/testing/paper_example.h"),
            "MAROON_TESTS_TESTING_PAPER_EXAMPLE_H_");
  EXPECT_EQ(ExpectedGuard("src/lint/lexer.h"), "MAROON_LINT_LEXER_H_");
}

TEST(LintRuleTest, AllowAllSuppresssEveryRule) {
  const std::string content =
      "void F(int n) {\n"
      "  assert(n > 0);  // maroon-lint: allow(all)\n"
      "}\n";
  EXPECT_TRUE(LintSource("src/core/scratch.cc", content).empty());
}

TEST(LintJsonTest, RenderJsonEscapesAndStructures) {
  LintResult result;
  result.files_scanned = 1;
  result.findings.push_back(
      {"R004", "src/a.cc", 3, 7, "bad \"quote\" and \\slash"});
  const std::string json = RenderJson(result);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\": \"R004\""), std::string::npos) << json;
  EXPECT_NE(json.find("bad \\\"quote\\\" and \\\\slash"), std::string::npos)
      << json;
}

/// The acceptance gate: the real tree must be lint-clean. Fixture dirs named
/// testdata are excluded by default, so the seeded violations above do not
/// trip this.
TEST(LintSelfCheckTest, RepositoryTreeIsClean) {
  LintOptions options;
  options.root = kRoot;
  auto result = RunLint(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->files_scanned, 150u);
  EXPECT_TRUE(result->findings.empty())
      << "the tree must stay lint-clean:\n" << RenderText(*result);
}

}  // namespace
}  // namespace lint
}  // namespace maroon
