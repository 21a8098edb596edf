#include <gtest/gtest.h>

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/hash.h"

namespace maroon {
namespace {

/// End-to-end smoke tests of the maroon_cli binary. Tests run with the
/// build/tests directory as working directory (gtest_discover_tests), so the
/// tool lives at ../tools/maroon_cli.
class CliTest : public ::testing::Test {
 protected:
  static constexpr char kCli[] = "../tools/maroon_cli";

  void SetUp() override {
    if (!std::filesystem::exists(kCli)) {
      GTEST_SKIP() << "maroon_cli binary not found at " << kCli;
    }
    // ctest -j runs each case in its own process concurrently; the scratch
    // directory must be unique per test case.
    dir_ = ::testing::TempDir() + "/maroon_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int Run(const std::string& args, std::string* output = nullptr,
          const std::string& env = "") {
    const std::string out_path = dir_ + "/cmd.out";
    // `env` is a "VAR=value" prefix (sh applies it to the command only) —
    // the crash tests arm failpoints in the child via MAROON_FAILPOINTS.
    const std::string command = (env.empty() ? "" : env + " ") +
                                std::string(kCli) + " " + args + " > " +
                                out_path + " 2>&1";
    const int code = std::system(command.c_str());
    if (output != nullptr) {
      std::ifstream in(out_path);
      std::ostringstream ss;
      ss << in.rdbuf();
      *output = ss.str();
    }
    return code;
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string dir_;
};

TEST_F(CliTest, NoArgumentsPrintsUsage) {
  std::string out;
  EXPECT_NE(Run("", &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST_F(CliTest, VersionFlagPrintsVersion) {
  std::string out;
  EXPECT_EQ(Run("--version", &out), 0) << out;
  EXPECT_NE(out.find("maroon_cli "), std::string::npos) << out;
}

TEST_F(CliTest, LintToolReportsVersionAndCleanExit) {
  constexpr char kLint[] = "../tools/maroon_lint";
  if (!std::filesystem::exists(kLint)) {
    GTEST_SKIP() << "maroon_lint binary not found at " << kLint;
  }
  const std::string out_path = dir_ + "/lint.out";
  const int code =
      std::system((std::string(kLint) + " --version > " + out_path).c_str());
  EXPECT_EQ(code, 0);
  std::ifstream in(out_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("maroon_lint "), std::string::npos) << ss.str();
}

TEST_F(CliTest, GenerateStatsEvaluatePipeline) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=25 --names=10 --seed=5",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("wrote"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/data/records.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/data/profiles.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/data/sources.csv"));

  ASSERT_EQ(Run("stats --data=" + dir_ + "/data", &out), 0) << out;
  EXPECT_NE(out.find("CareerHub"), std::string::npos);
  EXPECT_NE(out.find("freshness"), std::string::npos);

  ASSERT_EQ(Run("evaluate --data=" + dir_ +
                    "/data --method=static --eval-entities=4",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("Static:"), std::string::npos);
}

TEST_F(CliTest, TransitionsAndExport) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=25 --names=10 --seed=5",
                &out),
            0);
  ASSERT_EQ(Run("transitions --data=" + dir_ +
                    "/data --attribute=Title --from=Manager --delta=5",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("Manager ->"), std::string::npos);

  ASSERT_EQ(Run("transitions --data=" + dir_ +
                    "/data --attribute=Title --export=" + dir_ + "/tt.csv",
                &out),
            0)
      << out;
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/tt.csv"));
}

TEST_F(CliTest, TransitionsOutputIsPinned) {
  // Golden hashes of the listing and the export for a fixed corpus: the
  // tables' counts, their order and every printed probability.
  const auto hash = [](const std::string& text) {
    Fnv1a h;
    h.Bytes(text);
    return h.hash();
  };
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=25 --names=10 --seed=5",
                &out),
            0);
  ASSERT_EQ(Run("transitions --data=" + dir_ +
                    "/data --attribute=Organization --delta=3",
                &out),
            0)
      << out;
  EXPECT_EQ(out.size(), 2550u);
  EXPECT_EQ(hash(out), 0x68e56bd6fd8c908full);
  ASSERT_EQ(Run("transitions --data=" + dir_ +
                    "/data --attribute=Title --from=Manager --delta=5",
                &out),
            0)
      << out;
  EXPECT_EQ(hash(out), 0x24ac81a4b5231842ull);
  ASSERT_EQ(Run("transitions --data=" + dir_ +
                    "/data --attribute=Organization --export=" + dir_ +
                    "/org.csv",
                &out),
            0)
      << out;
  const std::string csv = ReadFile(dir_ + "/org.csv");
  EXPECT_EQ(csv.size(), 176074u);
  EXPECT_EQ(hash(csv), 0x5600170dbb3f69a1ull);
}

TEST_F(CliTest, ValidateInjectLenientWorkflow) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=25 --names=10 --seed=5",
                &out),
            0)
      << out;

  // A freshly generated corpus validates clean (exit 0).
  ASSERT_EQ(Run("validate --data=" + dir_ + "/data", &out), 0) << out;
  EXPECT_NE(out.find("0 issue(s)"), std::string::npos);

  // Corrupt it; the injector reports what it did.
  ASSERT_EQ(Run("inject --data=" + dir_ +
                    "/data --seed=11 --drop-cell=0.15 --unknown-source=0.1 "
                    "--shuffle-timestamp=0.1",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("FaultReport:"), std::string::npos);
  EXPECT_NE(out.find("DropCell"), std::string::npos);

  // Now validate exits non-zero and names the damage.
  EXPECT_NE(Run("validate --data=" + dir_ + "/data", &out), 0);
  EXPECT_NE(out.find("WrongColumnCount"), std::string::npos);
  EXPECT_NE(out.find("quarantined"), std::string::npos);

  // Strict loading fails outright...
  EXPECT_NE(Run("stats --data=" + dir_ + "/data", &out), 0);
  EXPECT_NE(out.find("error:"), std::string::npos);

  // ...but --lenient quarantines and completes, printing counters.
  ASSERT_EQ(Run("stats --data=" + dir_ + "/data --lenient", &out), 0) << out;
  EXPECT_NE(out.find("lenient load: quarantined"), std::string::npos);
  ASSERT_EQ(Run("evaluate --data=" + dir_ +
                    "/data --lenient --method=static --eval-entities=4",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("lenient load: quarantined"), std::string::npos);
  EXPECT_NE(out.find("Static:"), std::string::npos);
}

TEST_F(CliTest, ValidateRepairWritesCleanCopy) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=dblp --out=" + dir_ +
                    "/data --entities=20 --names=5",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("inject --data=" + dir_ +
                    "/data --seed=3 --invert-interval=0.2 "
                    "--mangle-separator=0.2",
                &out),
            0)
      << out;
  // Repair policy fixes everything fixable and writes the repaired copy.
  EXPECT_NE(Run("validate --data=" + dir_ + "/data --policy=repair --out=" +
                    dir_ + "/fixed",
                &out),
            0);  // issues were found, so exit is non-zero...
  EXPECT_NE(out.find("repair(s)"), std::string::npos);
  // ...but the repaired copy validates clean.
  EXPECT_EQ(Run("validate --data=" + dir_ + "/fixed", &out), 0) << out;
}

TEST_F(CliTest, ObservabilityFlagsWriteMetricsTraceAndReport) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=25 --names=10 --seed=5",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("link --data=" + dir_ + "/data --entity=entity_0" +
                    " --metrics-out=" + dir_ + "/metrics.json" +
                    " --trace-out=" + dir_ + "/trace.json" +
                    " --run-report=" + dir_ + "/report.json",
                &out),
            0)
      << out;

  // The snapshot must carry at least one counter from every instrumented
  // pipeline layer.
  const std::string metrics = ReadFile(dir_ + "/metrics.json");
  EXPECT_NE(metrics.find("\"maroon.validation.records_checked\""),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\"maroon.transition.delta_observations\""),
            std::string::npos);
  EXPECT_NE(metrics.find("\"maroon.freshness.observations\""),
            std::string::npos);
  EXPECT_NE(metrics.find("\"maroon.phase1.clusters_formed\""),
            std::string::npos);
  EXPECT_NE(metrics.find("\"maroon.phase2.iterations\""), std::string::npos);
  EXPECT_NE(metrics.find("\"histograms\""), std::string::npos);

  const std::string trace = ReadFile(dir_ + "/trace.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"cli.link\""), std::string::npos);
  EXPECT_NE(trace.find("\"phase1.partition\""), std::string::npos);

  const std::string report = ReadFile(dir_ + "/report.json");
  EXPECT_NE(report.find("\"maroon_run_report_v2\""), std::string::npos);
  EXPECT_NE(report.find("\"command\": \"link\""), std::string::npos);
  EXPECT_NE(report.find("\"metrics\""), std::string::npos);

  // Bare --run-report prints the human-readable table instead.
  ASSERT_EQ(Run("stats --data=" + dir_ + "/data --run-report", &out), 0)
      << out;
  EXPECT_NE(out.find("== MAROON run report =="), std::string::npos);
  // The table elides zero counters; freshness training always observes
  // something on this corpus.
  EXPECT_NE(out.find("maroon.freshness.observations"), std::string::npos);
}

TEST_F(CliTest, MetricsPromOutWritesExpositionFormat) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=25 --names=10 --seed=5",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("link --data=" + dir_ + "/data --entity=entity_0" +
                    " --metrics-prom-out=" + dir_ + "/metrics.prom",
                &out),
            0)
      << out;
  const std::string prom = ReadFile(dir_ + "/metrics.prom");
  EXPECT_NE(prom.find("# TYPE maroon_phase1_clusters_formed counter"),
            std::string::npos)
      << prom;
  // The per-entity latency histogram renders the scrape ladder.
  EXPECT_NE(prom.find("# TYPE maroon_link_entity_seconds histogram"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("maroon_link_entity_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("maroon_link_entity_seconds_count"), std::string::npos);
}

TEST_F(CliTest, MetricsJsonlWritesSnapshotSeries) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=25 --names=10 --seed=5",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("link --data=" + dir_ + "/data --entity=entity_0" +
                    " --metrics-jsonl=" + dir_ +
                    "/metrics.jsonl --metrics-every-s=0.05",
                &out),
            0)
      << out;
  const std::string jsonl = ReadFile(dir_ + "/metrics.jsonl");
  // At least the final row (written on Stop) is present and well-formed.
  EXPECT_NE(jsonl.find("\"maroon_metrics_snapshot_v2\""), std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"seq\": 0"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"histograms\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"maroon.link.entity_seconds\""), std::string::npos);

  // --metrics-every-s without --metrics-jsonl is a usage error.
  EXPECT_NE(Run("stats --data=" + dir_ + "/data --metrics-every-s=1", &out),
            0);
  EXPECT_NE(out.find("--metrics-jsonl"), std::string::npos) << out;
}

/// The "key=value" line for `key` in the replay/recover state block.
std::string StateLine(const std::string& output, const std::string& key) {
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + "=", 0) == 0) return line;
  }
  return "";
}

TEST_F(CliTest, ReplayRecoverRoundTrip) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=20 --names=8 --seed=9",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("replay --data=" + dir_ + "/data --wal-dir=" + dir_ +
                    "/wal --snapshot-every=50",
                &out),
            0)
      << out;
  const std::string hash = StateLine(out, "store_hash");
  ASSERT_FALSE(hash.empty()) << out;
  EXPECT_EQ(StateLine(out, "rejected"), "rejected=0") << out;
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/wal/profile.wal"));
  EXPECT_FALSE(std::filesystem::is_empty(dir_ + "/wal/snapshots"));

  // Recovery (snapshot + WAL tail) rebuilds the identical store.
  ASSERT_EQ(Run("recover --wal-dir=" + dir_ + "/wal", &out), 0) << out;
  EXPECT_EQ(StateLine(out, "store_hash"), hash) << out;

  // --state-out writes the same parseable block to a file.
  ASSERT_EQ(Run("recover --wal-dir=" + dir_ + "/wal --state-out=" + dir_ +
                    "/state.txt",
                &out),
            0)
      << out;
  EXPECT_NE(ReadFile(dir_ + "/state.txt").find(hash), std::string::npos);
}

TEST_F(CliTest, ReplayKilledMidStreamRecoversAndResumes) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=20 --names=8 --seed=9",
                &out),
            0)
      << out;
  // Reference: the uninterrupted run's final hash.
  ASSERT_EQ(Run("replay --data=" + dir_ + "/data --wal-dir=" + dir_ +
                    "/ref --snapshot-every=25",
                &out),
            0)
      << out;
  const std::string want = StateLine(out, "store_hash");
  ASSERT_FALSE(want.empty()) << out;

  // Kill the process at the crash window between WAL append and store
  // apply; the injected death uses the reserved failpoint exit code.
  const int code = Run(
      "replay --data=" + dir_ + "/data --wal-dir=" + dir_ +
          "/crash --snapshot-every=25",
      &out, "MAROON_FAILPOINTS=stream.apply.before=kill@40");
  ASSERT_NE(code, 0);
  EXPECT_NE(out.find("failpoint kill"), std::string::npos) << out;

  // Recovery replays the WAL tail; resending the whole stream then skips
  // every already-durable record and converges on the reference hash.
  ASSERT_EQ(Run("recover --wal-dir=" + dir_ + "/crash", &out), 0) << out;
  EXPECT_EQ(StateLine(out, "last_seq"), "last_seq=41") << out;
  ASSERT_EQ(Run("replay --data=" + dir_ + "/data --wal-dir=" + dir_ +
                    "/crash --snapshot-every=25",
                &out),
            0)
      << out;
  EXPECT_EQ(StateLine(out, "store_hash"), want) << out;
  EXPECT_EQ(StateLine(out, "resumed_skips"), "resumed_skips=41") << out;
}

TEST_F(CliTest, ListCrashPointsEnumeratesDurabilitySites) {
  std::string out;
  ASSERT_EQ(Run("--list-crash-points", &out), 0) << out;
  EXPECT_NE(out.find("wal.append.write"), std::string::npos) << out;
  EXPECT_NE(out.find("snapshot.rename.before"), std::string::npos);
  EXPECT_NE(out.find("stream.apply.before"), std::string::npos);
}

TEST_F(CliTest, UnwritableSinksExitNonzero) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=20 --names=8 --seed=9",
                &out),
            0)
      << out;
  const std::string bad = dir_ + "/no/such/dir/out.txt";

  // Every file sink must fail loudly: the report writer...
  EXPECT_NE(Run("evaluate --data=" + dir_ + "/data --eval-entities=2 "
                    "--report=" + bad,
                &out),
            0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  // ...the stream state sink...
  EXPECT_NE(Run("replay --data=" + dir_ + "/data --wal-dir=" + dir_ +
                    "/wal --state-out=" + bad,
                &out),
            0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  // ...and the observability sinks, even when the command itself succeeded.
  EXPECT_NE(Run("stats --data=" + dir_ + "/data --metrics-out=" + bad, &out),
            0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(Run("stats --data=" + dir_ + "/data --metrics-prom-out=" + bad,
                &out),
            0);
  EXPECT_NE(Run("stats --data=" + dir_ + "/data --run-report=" + bad, &out),
            0);
}

TEST_F(CliTest, UnknownCommandAndBadFlags) {
  std::string out;
  EXPECT_NE(Run("frobnicate", &out), 0);
  EXPECT_NE(Run("stats --data=/nonexistent", &out), 0);
  EXPECT_NE(out.find("error:"), std::string::npos);
  EXPECT_NE(Run("generate --dataset=bogus --out=" + dir_ + "/x", &out), 0);
}

TEST_F(CliTest, ServeStreamsTheCorpusAndExitsOnTheDurationBudget) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=20 --names=8 --seed=7",
                &out),
            0)
      << out;
  ASSERT_EQ(Run("serve --data=" + dir_ + "/data --wal-dir=" + dir_ +
                    "/wal --port=0 --port-file=" + dir_ +
                    "/port.txt --duration-s=2",
                &out),
            0)
      << out;
  EXPECT_NE(out.find("serving ops plane on http://127.0.0.1:"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("ingest done:"), std::string::npos) << out;
  EXPECT_NE(out.find("serve: streamed"), std::string::npos) << out;
  EXPECT_NE(out.find("scrapes="), std::string::npos) << out;
  // The ephemeral port was published for harnesses to pick up.
  const std::string port = ReadFile(dir_ + "/port.txt");
  EXPECT_FALSE(port.empty());
  int port_value = 0;
  (void)std::from_chars(port.data(), port.data() + port.size(), port_value);
  EXPECT_GT(port_value, 0);
}

TEST_F(CliTest, ServeExitsNonZeroWhenAWalFaultHaltsIngest) {
  std::string out;
  ASSERT_EQ(Run("generate --dataset=recruitment --out=" + dir_ +
                    "/data --entities=10 --names=5 --seed=7",
                &out),
            0)
      << out;
  EXPECT_NE(Run("serve --data=" + dir_ + "/data --wal-dir=" + dir_ +
                    "/wal --port=0 --duration-s=1",
                &out, "MAROON_FAILPOINTS='wal.append.write=fail@0:0'"),
            0)
      << out;
  EXPECT_NE(out.find("ingest halted:"), std::string::npos) << out;
  EXPECT_NE(out.find("halted on error"), std::string::npos) << out;
}

TEST_F(CliTest, PromlintPassesCleanAndFlagsBrokenExpositions) {
  std::string out;
  {
    std::ofstream clean(dir_ + "/clean.prom");
    clean << "# TYPE maroon_test_total counter\nmaroon_test_total 3\n";
  }
  EXPECT_EQ(Run("promlint " + dir_ + "/clean.prom", &out), 0) << out;
  EXPECT_NE(out.find("promlint: clean"), std::string::npos) << out;

  {
    std::ofstream broken(dir_ + "/broken.prom");
    broken << "9bad 1\nmaroon_ok notanumber\n";
  }
  EXPECT_NE(Run("promlint " + dir_ + "/broken.prom", &out), 0) << out;
  EXPECT_NE(out.find("problem(s)"), std::string::npos) << out;

  EXPECT_NE(Run("promlint", &out), 0);           // missing argument
  EXPECT_NE(Run("promlint /nonexistent", &out), 0);  // unreadable file
}

}  // namespace
}  // namespace maroon
