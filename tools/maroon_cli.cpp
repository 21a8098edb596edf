// The MAROON command-line tool: generate corpora, inspect statistics,
// examine learnt transitions, link individual entities, and run the full
// evaluation — all against CSV datasets on disk.
//
// Usage:
//   maroon_cli generate --dataset=recruitment --out=DIR [--entities=N]
//              [--names=N] [--seed=S] [--error-rate=E]
//   maroon_cli generate --dataset=dblp --out=DIR [--entities=N] [--names=N]
//   maroon_cli stats --data=DIR [--lenient]
//   maroon_cli transitions --data=DIR --attribute=Title [--from=Manager]
//              [--delta=5]
//   maroon_cli link --data=DIR --entity=ID [--lenient]
//   maroon_cli evaluate --data=DIR [--method=maroon|afds_transition|
//              muta_afds|decay_afds|static|all] [--eval-entities=N]
//              [--lenient]
//   maroon_cli validate --data=DIR [--policy=strict|quarantine|repair]
//              [--out=DIR]
//   maroon_cli inject --data=DIR [--seed=S] [--drop-cell=R]
//              [--invert-interval=R] [--duplicate-id=R] [--unknown-source=R]
//              [--shuffle-timestamp=R] [--mangle-separator=R]
//   maroon_cli replay --data=DIR --wal-dir=DIR [--snapshot-every=N]
//              [--max-queue=N] [--max-entities=N] [--sync-every=N]
//              [--state-out=FILE] [--lenient]
//   maroon_cli recover --wal-dir=DIR [--state-out=FILE]
//   maroon_cli serve --data=DIR --wal-dir=DIR [--port=N] [--bind=ADDR]
//              [--port-file=FILE] [--throttle-us=N] [--duration-s=S]
//              [--snapshot-every=N] [--max-queue=N] [--max-entities=N]
//              [--sync-every=N] [--state-out=FILE] [--lenient]
//   maroon_cli promlint FILE
//   maroon_cli --list-crash-points
//
// Data-loading commands accept --lenient: malformed rows and semantically
// invalid records are quarantined (with counters printed) instead of
// aborting the load.
//
// Any command accepts --threads=N to fan the training / linking /
// evaluation loops over N pool workers (default: MAROON_THREADS, else 1);
// outputs are identical at every N.
//
// Observability (any command):
//   --metrics-out=FILE  write the metrics registry snapshot as JSON
//   --metrics-prom-out=FILE
//                       write the snapshot in Prometheus text exposition
//                       format (scrape-compatible, format 0.0.4)
//   --metrics-jsonl=FILE
//                       append periodic maroon_metrics_snapshot_v2 rows to
//                       FILE while the command runs (a final row is always
//                       written on exit)
//   --metrics-every-s=S period for --metrics-jsonl, seconds (default 10)
//   --trace-out=FILE    enable span tracing, write Chrome trace_event JSON
//                       (loadable in chrome://tracing / ui.perfetto.dev)
//   --run-report[=FILE] print a human-readable run report; with =FILE,
//                       write the maroon_run_report_v2 JSON instead

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/dataset_io.h"
#include "core/profile_algebra.h"
#include "core/profile_wal.h"
#include "core/validation.h"
#include "datagen/dblp_generator.h"
#include "datagen/fault_injector.h"
#include "datagen/recruitment_generator.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "eval/sweep.h"
#include "freshness/freshness_model.h"
#include "maroon/version_info.h"
#include "matching/stream_linker.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/metrics_snapshotter.h"
#include "obs/ops_server.h"
#include "obs/prometheus.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "transition/transition_io.h"

namespace maroon {
namespace {

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

int Usage() {
  std::cerr
      << "usage: maroon_cli "
         "<generate|stats|transitions|link|evaluate|sweep|validate|inject|"
         "replay|recover|serve|promlint> [--flags]\n"
         "  generate    --dataset=recruitment|dblp --out=DIR [--entities=N]\n"
         "              [--names=N] [--seed=S] [--error-rate=E]\n"
         "  stats       --data=DIR [--lenient]\n"
         "  transitions --data=DIR --attribute=A [--from=V] [--delta=N]\n"
         "  link        --data=DIR --entity=ID [--lenient]\n"
         "  evaluate    --data=DIR [--method=...|all] [--eval-entities=N]\n"
         "              [--report=FILE.md] [--reliability] [--lenient]\n"
         "  sweep       --data=DIR [--thetas=0.01,0.1,...] "
         "[--eval-entities=N]\n"
         "  validate    --data=DIR [--policy=strict|quarantine|repair]\n"
         "              [--out=DIR]   (exit 1 when issues are found)\n"
         "  inject      --data=DIR [--seed=S] [--drop-cell=R]\n"
         "              [--invert-interval=R] [--duplicate-id=R]\n"
         "              [--unknown-source=R] [--shuffle-timestamp=R]\n"
         "              [--mangle-separator=R]   (corrupts DIR in place)\n"
         "  replay      --data=DIR --wal-dir=DIR [--snapshot-every=N]\n"
         "              [--max-queue=N] [--max-entities=N] [--sync-every=N]\n"
         "              [--state-out=FILE] [--lenient]\n"
         "              stream the corpus through the durable linker: every\n"
         "              record is WAL-appended before it mutates the store,\n"
         "              snapshots land in WAL-DIR/snapshots\n"
         "  recover     --wal-dir=DIR [--state-out=FILE]\n"
         "              rebuild the store from the newest valid snapshot\n"
         "              plus the WAL tail and print its state hash\n"
         "  serve       --data=DIR --wal-dir=DIR [--port=N] [--bind=ADDR]\n"
         "              [--port-file=FILE] [--throttle-us=N]\n"
         "              [--duration-s=S] [--snapshot-every=N] "
         "[--max-queue=N]\n"
         "              [--max-entities=N] [--sync-every=N] "
         "[--state-out=FILE]\n"
         "              stream the corpus through the durable linker while\n"
         "              serving the live ops plane (/metrics /varz /healthz\n"
         "              /readyz /statusz /tracez); runs until SIGTERM, or\n"
         "              --duration-s elapses (--port=0 picks a free port,\n"
         "              written to --port-file when given)\n"
         "  promlint    FILE\n"
         "              lint a Prometheus text exposition file (exit 1 on\n"
         "              violations)\n"
         "\n"
         "  --list-crash-points  print every registered failpoint and exit\n"
         "\n"
         "  --lenient quarantines malformed rows/records instead of failing\n"
         "  the load, printing quarantine counters.\n"
         "\n"
         "  Global flags (any command):\n"
         "  --threads=N          worker threads for training, linking, and\n"
         "                       evaluation (default: MAROON_THREADS or 1;\n"
         "                       results are identical at every N)\n"
         "\n"
         "  Observability flags (any command):\n"
         "  --metrics-out=FILE   write the metrics snapshot as JSON\n"
         "  --metrics-prom-out=FILE  write it as Prometheus text format\n"
         "  --metrics-jsonl=FILE append periodic snapshot rows while "
         "running\n"
         "  --metrics-every-s=S  snapshot period for --metrics-jsonl "
         "(default 10)\n"
         "  --trace-out=FILE     enable tracing, write Chrome trace JSON\n"
         "  --run-report[=FILE]  print a run report (JSON when =FILE)\n";
  return 2;
}

int RunGenerate(const FlagParser& flags) {
  auto out = flags.GetString("out");
  if (!out.ok()) return Fail(out.status());
  std::error_code ec;
  std::filesystem::create_directories(*out, ec);
  if (ec) {
    return Fail(Status::IOError("cannot create directory " + *out + ": " +
                                ec.message()));
  }

  const std::string kind = flags.GetStringOr("dataset", "recruitment");
  Dataset dataset;
  if (kind == "recruitment") {
    RecruitmentOptions options;
    options.seed = static_cast<uint64_t>(flags.GetIntOr("seed", 42));
    options.num_entities =
        static_cast<size_t>(flags.GetIntOr("entities", 500));
    options.num_names = static_cast<size_t>(
        flags.GetIntOr("names", static_cast<int64_t>(options.num_entities) / 3));
    options.social_source_error_rate = flags.GetDoubleOr("error-rate", 0.0);
    dataset = GenerateRecruitmentDataset(options);
  } else if (kind == "dblp") {
    DblpOptions options;
    options.seed = static_cast<uint64_t>(flags.GetIntOr("seed", 7));
    options.num_entities =
        static_cast<size_t>(flags.GetIntOr("entities", 216));
    options.num_names = static_cast<size_t>(flags.GetIntOr("names", 21));
    dataset = std::move(GenerateDblpCorpus(options).dataset);
  } else {
    return Fail(Status::InvalidArgument("unknown --dataset '" + kind + "'"));
  }

  const Status status = WriteDatasetCsv(dataset, *out);
  if (!status.ok()) return Fail(status);
  std::cout << "wrote " << dataset.NumRecords() << " records, "
            << dataset.targets().size() << " targets to " << *out << "\n";
  return 0;
}

Result<Dataset> LoadData(const FlagParser& flags) {
  MAROON_ASSIGN_OR_RETURN(std::string dir, flags.GetString("data"));
  if (!flags.GetBoolOr("lenient", false)) return ReadDatasetCsv(dir);

  CsvLoadOptions options;
  options.validation.policy = RepairPolicy::kQuarantine;
  options.infer_plausible_window = true;
  ValidationReport report;
  MAROON_ASSIGN_OR_RETURN(Dataset dataset,
                          ReadDatasetCsv(dir, options, &report));
  if (!report.clean()) {
    std::cout << "lenient load: quarantined " << report.TotalQuarantined()
              << " record(s)/row(s), " << report.issues.size()
              << " issue(s) flagged, " << report.repairs_applied
              << " repair(s) applied\n";
  }
  return dataset;
}

int RunValidate(const FlagParser& flags) {
  auto dir = flags.GetString("data");
  if (!dir.ok()) return Fail(dir.status());
  auto policy = ParseRepairPolicy(flags.GetStringOr("policy", "quarantine"));
  if (!policy.ok()) return Fail(policy.status());

  CsvLoadOptions options;
  options.validation.policy = *policy;
  options.infer_plausible_window = true;
  ValidationReport report;
  auto dataset = ReadDatasetCsv(*dir, options, &report);
  if (!dataset.ok()) {
    // Strict policy fails on the first issue; surface whatever the report
    // gathered before the failure, then the status itself.
    if (!report.clean()) std::cout << report.ToString();
    return Fail(dataset.status());
  }
  std::cout << report.ToString();

  if (flags.Has("out")) {
    auto out = flags.GetString("out");
    if (!out.ok()) return Fail(out.status());
    std::error_code ec;
    std::filesystem::create_directories(*out, ec);
    if (ec) {
      return Fail(Status::IOError("cannot create directory " + *out + ": " +
                                  ec.message()));
    }
    const Status status = WriteDatasetCsv(*dataset, *out);
    if (!status.ok()) return Fail(status);
    std::cout << "wrote validated dataset (" << dataset->NumRecords()
              << " records) to " << *out << "\n";
  }
  return report.clean() ? 0 : 1;
}

int RunInject(const FlagParser& flags) {
  auto dir = flags.GetString("data");
  if (!dir.ok()) return Fail(dir.status());

  FaultInjectorOptions options;
  options.seed = static_cast<uint64_t>(flags.GetIntOr("seed", 99));
  options.drop_cell_rate = flags.GetDoubleOr("drop-cell", 0.0);
  options.invert_interval_rate = flags.GetDoubleOr("invert-interval", 0.0);
  options.duplicate_record_rate = flags.GetDoubleOr("duplicate-id", 0.0);
  options.unknown_source_rate = flags.GetDoubleOr("unknown-source", 0.0);
  options.shuffle_timestamp_rate = flags.GetDoubleOr("shuffle-timestamp", 0.0);
  options.mangle_separator_rate = flags.GetDoubleOr("mangle-separator", 0.0);

  FaultInjector injector(options);
  auto report = injector.CorruptDirectory(*dir);
  if (!report.ok()) return Fail(report.status());
  std::cout << report->ToString();
  return 0;
}

int RunStats(const FlagParser& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  std::cout << dataset->StatisticsString();

  std::vector<EntityId> entities;
  for (const auto& [id, t] : dataset->targets()) entities.push_back(id);
  const FreshnessModel freshness = FreshnessModel::Train(*dataset, entities);
  std::cout << "\nSource freshness (mean Delay(0, s, A)):\n";
  for (const DataSource& s : dataset->sources()) {
    std::cout << "  " << s.name << ": "
              << FormatDouble(
                     freshness.FreshnessScore(s.id, dataset->attributes()), 2)
              << (freshness.IsFresh(s.id, dataset->attributes(), 0.9)
                      ? "  (fresh at mu=0.9)"
                      : "  (stale at mu=0.9)")
              << "\n";
  }
  return 0;
}

int RunTransitions(const FlagParser& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  auto attribute = flags.GetString("attribute");
  if (!attribute.ok()) return Fail(attribute.status());

  ProfileSet profiles;
  for (const auto& [id, target] : dataset->targets()) {
    profiles.push_back(target.ground_truth);
  }
  const TransitionModel model = TransitionModel::Train(profiles, {*attribute});
  if (!model.HasAttribute(*attribute)) {
    return Fail(Status::NotFound("no profile data for attribute '" +
                                 *attribute + "'"));
  }
  if (flags.Has("export")) {
    auto path = flags.GetString("export");
    if (!path.ok()) return Fail(path.status());
    const Status status = WriteTransitionTablesCsv(model, *attribute, *path);
    if (!status.ok()) return Fail(status);
    std::cout << "exported transition tables for " << *attribute << " to "
              << *path << "\n";
    return 0;
  }

  const int64_t delta = flags.GetIntOr("delta", 5);
  const TransitionTable* table = model.table(*attribute, delta);
  if (table == nullptr) {
    return Fail(Status::NotFound("no transition table at delta " +
                                 std::to_string(delta)));
  }
  const std::string from_filter = flags.GetStringOr("from", "");
  std::cout << "transitions for " << *attribute << " at dt=" << delta
            << (from_filter.empty() ? "" : " from '" + from_filter + "'")
            << ":\n";
  size_t printed = 0;
  for (const auto& [from, to, count] : table->Entries()) {
    if (!from_filter.empty() && from != from_filter) continue;
    std::cout << "  " << from << " -> " << to << ": count " << count
              << ", Pr = "
              << FormatDouble(model.Probability(*attribute, from, to, delta),
                              3)
              << "\n";
    if (++printed >= 40 && from_filter.empty()) {
      std::cout << "  ... (" << table->NumEntries() - printed
                << " more entries)\n";
      break;
    }
  }
  return 0;
}

int RunLink(const FlagParser& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  auto entity = flags.GetString("entity");
  if (!entity.ok()) return Fail(entity.status());
  auto target = dataset->target(*entity);
  if (!target.ok()) return Fail(target.status());

  ExperimentOptions options;
  Experiment experiment(&*dataset, options);
  experiment.Prepare();

  MaroonOptions maroon_options;
  maroon_options.matcher.single_valued_attributes = dataset->attributes();
  Maroon maroon(&experiment.transition_model(), &experiment.freshness_model(),
                &experiment.similarity(), dataset->attributes(),
                maroon_options);
  std::vector<const TemporalRecord*> candidates;
  for (RecordId id : dataset->CandidatesFor(*entity)) {
    candidates.push_back(&dataset->record(id));
  }
  const LinkResult result =
      maroon.Link((*target)->clean_profile, candidates);

  std::cout << "entity " << *entity << " (\""
            << (*target)->clean_profile.name() << "\"): "
            << candidates.size() << " candidates, "
            << result.match.matched_records.size() << " linked, "
            << result.num_clusters << " clusters\n\n";
  std::cout << "augmented profile:\n"
            << result.match.augmented_profile.ToString() << "\n\n"
            << RenderTimeline(result.match.augmented_profile) << "\n";
  const auto pr = ComputePrecisionRecall(result.match.matched_records,
                                         dataset->TrueMatchesOf(*entity));
  std::cout << "P=" << FormatDouble(pr.precision, 3)
            << " R=" << FormatDouble(pr.recall, 3) << "\n";
  return 0;
}

int RunEvaluate(const FlagParser& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) return Fail(dataset.status());

  ExperimentOptions options;
  options.max_eval_entities =
      static_cast<size_t>(flags.GetIntOr("eval-entities", 0));
  options.use_source_reliability = flags.GetBoolOr("reliability", false);

  if (flags.Has("report")) {
    auto path = flags.GetString("report");
    if (!path.ok()) return Fail(path.status());
    ReportOptions report_options;
    report_options.theta_sweep = {0.01, 0.05, 0.1, 0.2};
    const std::string report =
        GenerateComparisonReport(*dataset, options, report_options);
    const Status written = obs::WriteTextFile(*path, report);
    if (!written.ok()) return Fail(written);
    std::cout << "wrote evaluation report to " << *path << "\n";
    return 0;
  }

  Experiment experiment(&*dataset, options);
  experiment.Prepare();

  const std::string method = flags.GetStringOr("method", "all");
  const std::vector<std::pair<std::string, Method>> known = {
      {"maroon", Method::kMaroon},
      {"afds_transition", Method::kAfdsTransition},
      {"muta_afds", Method::kAfdsMuta},
      {"decay_afds", Method::kAfdsDecay},
      {"static", Method::kStatic},
  };
  bool ran = false;
  for (const auto& [name, m] : known) {
    if (method != "all" && method != name) continue;
    std::cout << experiment.Run(m).ToString() << "\n";
    ran = true;
  }
  if (!ran) {
    return Fail(Status::InvalidArgument("unknown --method '" + method + "'"));
  }
  return 0;
}

int RunSweep(const FlagParser& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  ExperimentOptions options;
  options.max_eval_entities =
      static_cast<size_t>(flags.GetIntOr("eval-entities", 30));
  std::vector<double> thetas;
  for (const std::string& part :
       Split(flags.GetStringOr("thetas", "0.01,0.05,0.1,0.2,0.4"), ',')) {
    FlagParser one({"--v=" + std::string(StripWhitespace(part))});
    auto v = one.GetDouble("v");
    if (!v.ok()) return Fail(v.status());
    thetas.push_back(*v);
  }
  const SweepCurve curve = SweepTheta(*dataset, options, thetas);
  std::cout << curve.ToCsv();
  if (const SweepPoint* best = curve.BestByF1()) {
    std::cout << "# best theta by F1: " << FormatDouble(best->parameter, 3)
              << " (F1 " << FormatDouble(best->result.f1, 3) << ")\n";
  }
  return 0;
}

std::string HashHex(uint64_t hash) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Builds StreamLinkerOptions from --wal-dir and friends; the WAL file and
/// snapshot directory both live under the one directory so `recover` can
/// find everything from the same flag.
Result<StreamLinkerOptions> StreamOptionsFromFlags(const FlagParser& flags) {
  MAROON_ASSIGN_OR_RETURN(std::string wal_dir, flags.GetString("wal-dir"));
  std::error_code ec;
  std::filesystem::create_directories(wal_dir + "/snapshots", ec);
  if (ec) {
    return Status::IOError("cannot create directory " + wal_dir +
                           "/snapshots: " + ec.message());
  }
  StreamLinkerOptions options;
  options.wal_path = wal_dir + "/profile.wal";
  options.snapshot_dir = wal_dir + "/snapshots";
  options.snapshot_every =
      static_cast<uint64_t>(flags.GetIntOr("snapshot-every", 0));
  options.max_queue = static_cast<size_t>(flags.GetIntOr("max-queue", 1024));
  options.max_store_entities =
      static_cast<size_t>(flags.GetIntOr("max-entities", 0));
  options.wal.sync_every = static_cast<int>(flags.GetIntOr("sync-every", 1));
  return options;
}

/// One parseable line per fact so the crash harness (and shell tests) can
/// grep e.g. `store_hash=` instead of scraping prose.
std::string DescribeStreamState(const StreamLinker& linker) {
  const StreamLinkerStats& stats = linker.stats();
  std::ostringstream os;
  os << "last_seq=" << linker.last_seq() << "\n"
     << "entities=" << linker.store().size() << "\n"
     << "store_hash=" << HashHex(HashProfileStore(linker.store())) << "\n"
     << "applied=" << stats.applied << "\n"
     << "recovered=" << stats.recovered << "\n"
     << "resumed_skips=" << stats.resumed_skips << "\n"
     << "rejected=" << stats.rejected << "\n"
     << "shed=" << stats.shed << "\n"
     << "retries=" << stats.retries << "\n"
     << "snapshots_written=" << stats.snapshots_written << "\n"
     << "snapshot_failures=" << stats.snapshot_failures << "\n";
  return os.str();
}

/// Prints the state and, with --state-out, also writes it to a file. Sink
/// failure is a command failure (exit nonzero), matching every other sink.
int EmitStreamState(const FlagParser& flags, const std::string& state) {
  std::cout << state;
  if (flags.Has("state-out")) {
    auto path = flags.GetString("state-out");
    if (!path.ok()) return Fail(path.status());
    const Status written = obs::WriteTextFile(*path, state);
    if (!written.ok()) return Fail(written);
  }
  return 0;
}

/// Submits one record, draining the admission queue once when it is full
/// (backpressure: after the drain the same record must fit). A degenerate
/// record is not an error: the linker counts it under stats().rejected.
Status SubmitWithBackpressure(StreamLinker* linker,
                              const TemporalRecord& record) {
  Status submitted = linker->Submit(record);
  if (submitted.code() == StatusCode::kResourceExhausted) {
    MAROON_RETURN_IF_ERROR(linker->Drain());
    submitted = linker->Submit(record);
  }
  if (submitted.code() == StatusCode::kInvalidArgument) return Status::OK();
  return submitted;
}

/// The `record_latency_ms:` summary line for replay/serve; empty before the
/// first record is applied.
std::string RecordLatencyLine() {
  const obs::HistogramSnapshot latency =
      MAROON_HISTOGRAM("maroon.stream.record_seconds")->Snapshot();
  if (latency.count == 0) return "";
  return "record_latency_ms: p50=" + FormatDouble(latency.P50() * 1e3, 3) +
         " p99=" + FormatDouble(latency.P99() * 1e3, 3) +
         " p999=" + FormatDouble(latency.P999() * 1e3, 3) + "\n";
}

int RunReplay(const FlagParser& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  auto options = StreamOptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status());

  auto linker = StreamLinker::Open(*options);
  if (!linker.ok()) return Fail(linker.status());

  for (const TemporalRecord& record : dataset->records()) {
    const Status submitted = SubmitWithBackpressure(&linker.value(), record);
    if (!submitted.ok()) return Fail(submitted);
  }
  const Status closed = linker->Close();
  if (!closed.ok()) return Fail(closed);

  std::ostringstream summary;
  summary << "replay: streamed " << dataset->NumRecords()
          << " record(s) through " << options->wal_path << "\n"
          << DescribeStreamState(*linker);
  if (obs::MetricsRegistry::Enabled()) summary << RecordLatencyLine();
  return EmitStreamState(flags, summary.str());
}

int RunRecover(const FlagParser& flags) {
  auto options = StreamOptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status());

  // Open *is* recovery: newest valid snapshot + WAL tail replay. Close
  // writes no snapshot here because recovery applies nothing new.
  auto linker = StreamLinker::Open(*options);
  if (!linker.ok()) return Fail(linker.status());
  const std::string state =
      "recover: " + options->wal_path + "\n" + DescribeStreamState(*linker);
  const Status closed = linker->Close();
  if (!closed.ok()) return Fail(closed);
  return EmitStreamState(flags, state);
}

/// Set by the SIGTERM/SIGINT handler; the serve loops poll it.
volatile std::sig_atomic_t g_shutdown_requested = 0;

extern "C" void HandleShutdownSignal(int /*signum*/) {
  g_shutdown_requested = 1;
}

/// Submits one record to the linker and drains it, handling backpressure
/// the same way `replay` does. Per-record draining keeps the
/// maroon.stream.record_seconds latency live for scrapes.
Status ServeOneRecord(StreamLinker* linker, const TemporalRecord& record) {
  MAROON_RETURN_IF_ERROR(SubmitWithBackpressure(linker, record));
  return linker->Drain();
}

int RunServe(const FlagParser& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  auto options = StreamOptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status());

  auto linker = StreamLinker::Open(*options);
  if (!linker.ok()) return Fail(linker.status());

  const std::string bind = flags.GetStringOr("bind", "127.0.0.1");
  const int64_t throttle_us = flags.GetIntOr("throttle-us", 0);
  const double duration_s = flags.GetDoubleOr("duration-s", 0.0);

  obs::OpsServerOptions ops_options;
  ops_options.http.bind_address = bind;
  ops_options.http.port = static_cast<int>(flags.GetIntOr("port", 0));
  ops_options.statusz_config = {
      {"command", "serve"},
      {"data", flags.GetStringOr("data", "")},
      {"wal", options->wal_path},
      {"snapshot_every", std::to_string(options->snapshot_every)},
      {"max_queue", std::to_string(options->max_queue)},
      {"max_entities", std::to_string(options->max_store_entities)},
      {"throttle_us", std::to_string(throttle_us)},
  };

  // The ring gives /tracez bounded memory for an indefinite run; full
  // tracing stays off unless --trace-out asked for it.
  obs::Tracer::SetRingEnabled(true);
  auto server = obs::OpsServer::Start(std::move(ops_options));
  if (!server.ok()) return Fail(server.status());

  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);

  std::cout << "serving ops plane on http://" << bind << ":"
            << (*server)->port() << "\n"
            << std::flush;
  if (flags.Has("port-file")) {
    const Status written =
        obs::WriteTextFile(flags.GetStringOr("port-file", ""),
                           std::to_string((*server)->port()) + "\n");
    if (!written.ok()) return Fail(written);
  }

  obs::HealthRegistry& health = obs::HealthRegistry::Global();
  linker->ReportHealth(&health);
  health.SetReady(true);

  const auto serve_start = std::chrono::steady_clock::now();
  const auto deadline_passed = [&serve_start, duration_s] {
    if (duration_s <= 0.0) return false;
    return SecondsSince(serve_start) >= duration_s;
  };

  // Ingest: replay the corpus through the durable linker while scrapes run.
  // A non-transient failure (a latched WAL error) stops ingest but NOT the
  // ops plane — operators diagnose a broken-but-alive process through
  // /healthz, which now reports UNHEALTHY.
  bool ingest_failed = false;
  size_t streamed = 0;
  for (const TemporalRecord& record : dataset->records()) {
    if (g_shutdown_requested != 0 || deadline_passed()) break;
    const Status processed = ServeOneRecord(&linker.value(), record);
    if (!processed.ok()) {
      std::cerr << "ingest halted: " << processed << "\n";
      ingest_failed = true;
      break;
    }
    ++streamed;
    if (streamed % 64 == 0) linker->ReportHealth(&health);
    if (throttle_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(throttle_us));
    }
  }
  linker->ReportHealth(&health);
  if (!ingest_failed && g_shutdown_requested == 0) {
    const Status flushed = linker->Flush();
    if (!flushed.ok()) {
      std::cerr << "flush failed: " << flushed << "\n";
      ingest_failed = true;
      linker->ReportHealth(&health);
    }
  }
  std::cout << "ingest done: " << streamed << " record(s) streamed"
            << (ingest_failed ? " (halted on error)" : "") << "\n"
            << std::flush;

  // Serve until the operator says stop (or the test-oriented --duration-s
  // budget runs out).
  while (g_shutdown_requested == 0 && !deadline_passed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    linker->ReportHealth(&health);
  }

  health.SetReady(false);
  (*server)->Stop();
  const Status closed = linker->Close();
  if (!closed.ok() && !ingest_failed) return Fail(closed);

  std::ostringstream summary;
  summary << "serve: streamed " << streamed << " record(s) through "
          << options->wal_path << "\n"
          << DescribeStreamState(*linker);
  if (obs::MetricsRegistry::Enabled()) {
    summary << RecordLatencyLine();
    const auto scrapes = MAROON_COUNTER("maroon.ops.scrapes")->value();
    summary << "scrapes=" << scrapes << "\n";
  }
  const int emitted = EmitStreamState(flags, summary.str());
  if (emitted != 0) return emitted;
  return ingest_failed ? 1 : 0;
}

int RunPromlint(const FlagParser& flags) {
  if (flags.positional().size() < 2) {
    std::cerr << "usage: maroon_cli promlint FILE\n";
    return 2;
  }
  const std::string& path = flags.positional()[1];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Fail(Status::IOError("cannot read " + path));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::vector<std::string> problems =
      obs::PrometheusLint(buffer.str());
  for (const std::string& problem : problems) {
    std::cout << path << ": " << problem << "\n";
  }
  if (!problems.empty()) {
    std::cout << "promlint: " << problems.size() << " problem(s)\n";
    return 1;
  }
  std::cout << "promlint: clean\n";
  return 0;
}

int Dispatch(const FlagParser& flags, const std::string& command) {
  if (command == "generate") return RunGenerate(flags);
  if (command == "stats") return RunStats(flags);
  if (command == "transitions") return RunTransitions(flags);
  if (command == "link") return RunLink(flags);
  if (command == "evaluate") return RunEvaluate(flags);
  if (command == "sweep") return RunSweep(flags);
  if (command == "validate") return RunValidate(flags);
  if (command == "inject") return RunInject(flags);
  if (command == "replay") return RunReplay(flags);
  if (command == "recover") return RunRecover(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "promlint") return RunPromlint(flags);
  return Usage();
}

/// Writes the requested observability artifacts after the command ran.
/// Export failures are reported but do not override the command's exit code
/// unless the command itself succeeded.
int ExportObservability(const FlagParser& flags, const std::string& command,
                        int code) {
  const auto write = [&code](const std::string& path,
                             const std::string& content) {
    const Status status = obs::WriteTextFile(path, content);
    if (!status.ok()) {
      std::cerr << "error: " << status << "\n";
      if (code == 0) code = 1;
    }
  };
  if (flags.Has("metrics-out")) {
    write(flags.GetStringOr("metrics-out", ""),
          obs::MetricsRegistry::Global().SnapshotJson() + "\n");
  }
  if (flags.Has("metrics-prom-out")) {
    write(flags.GetStringOr("metrics-prom-out", ""),
          obs::PrometheusTextFromGlobal());
  }
  if (flags.Has("trace-out")) {
    write(flags.GetStringOr("trace-out", ""),
          obs::Tracer::Global().ToChromeTraceJson() + "\n");
  }
  if (flags.Has("run-report")) {
    obs::RunReportOptions report;
    report.config.emplace_back("command", command);
    report.config.emplace_back("binary", "maroon_cli " MAROON_VERSION);
    const std::string value = flags.GetStringOr("run-report", "true");
    if (value == "true" || value.empty()) {
      std::cout << obs::RenderRunReportText(report);
    } else {
      write(value, obs::BuildRunReportJson(report) + "\n");
    }
  }
  return code;
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  if (flags.GetBoolOr("version", false)) {
    std::cout << "maroon_cli " << MAROON_VERSION << " (" << MAROON_GIT_DESCRIBE
              << ")\n";
    return 0;
  }
  if (flags.GetBoolOr("list-crash-points", false)) {
    // The kill-and-recover harness iterates this list; keep the format one
    // "<point>\t<description>" per line.
    for (const auto& [point, description] : failpoint::RegisteredPoints()) {
      std::cout << point << "\t" << description << "\n";
    }
    return 0;
  }
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  // Every export and scrape self-identifies the binary (maroon_build_info
  // with version/revision labels, maroon_uptime_seconds).
  obs::RegisterBuildMetrics();
  if (flags.Has("trace-out")) obs::Tracer::SetEnabled(true);
  const int64_t threads = flags.GetIntOr("threads", 0);
  if (threads > 0) {
    ThreadPool::SetDefaultThreadCount(static_cast<int>(threads));
  }
  // Periodic metrics time series: runs for the duration of the command and
  // always leaves a final row, so even short commands produce one snapshot.
  std::unique_ptr<obs::MetricsSnapshotWriter> snapshotter;
  if (flags.Has("metrics-jsonl")) {
    obs::MetricsSnapshotWriterOptions snapshot_options;
    snapshot_options.path = flags.GetStringOr("metrics-jsonl", "");
    snapshot_options.period_s = flags.GetDoubleOr("metrics-every-s", 10.0);
    if (snapshot_options.path.empty() || snapshot_options.period_s <= 0.0) {
      std::cerr << "error: --metrics-jsonl needs a path and a positive "
                   "--metrics-every-s\n";
      return Usage();
    }
    snapshotter =
        std::make_unique<obs::MetricsSnapshotWriter>(snapshot_options);
  } else if (flags.Has("metrics-every-s")) {
    std::cerr << "error: --metrics-every-s requires --metrics-jsonl=FILE\n";
    return Usage();
  }
  int code = 0;
  {
    // Top-level span so the exported trace covers the full command wall
    // time. Span names must outlive the tracer; one command per process.
    static const std::string top_name = "cli." + command;
    obs::Span top(top_name.c_str());
    code = Dispatch(flags, command);
  }
  if (snapshotter != nullptr) {
    snapshotter->Stop();
    if (!snapshotter->status().ok()) {
      std::cerr << "error: " << snapshotter->status() << "\n";
      if (code == 0) code = 1;
    }
  }
  return ExportObservability(flags, command, code);
}

}  // namespace
}  // namespace maroon

int main(int argc, char** argv) { return maroon::Main(argc, argv); }
