// maroon_perfbench: the repository benchmark. One run measures one workload
// for a given seed and time budget and prints its metrics as the last line
// of stdout. perfbench/run.py builds this program and forwards its flags;
// perfbench/README.md documents the workloads and every metric.
//
//   maroon_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--size full|tiny] [--work-dir DIR] [--corrupt GATE]

#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "matching/stream_linker.h"
#include "obs/ops_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The metric names BENCHMARK.json declares, in the order they print.
const std::vector<std::string> kEndToEnd = {
    "setup_s",        "peak_rss_mb",          "ok_ratio",
    "link_entities_per_s", "link_f1",         "ingest_records_per_s",
    "ingest_p50_ms",  "ingest_p90_ms",        "recover_s",
    "ingest_f1",
};

const std::vector<std::string> kPerLayer = {
    "datagen.generate_s",
    "transition.train_s",
    "freshness.train_s",
    "transition.cache_hit_ratio",
    "core.candidates_s",
    "core.candidates_per_entity",
    "matching.phase1_s",
    "matching.phase1_clusters",
    "matching.phase2_s",
    "matching.phase2_link_ratio",
    "matching.link_entity_p50_ms",
    "matching.link_entity_p99_ms",
    "matching.link_entity_samples",
    "matching.resolve_s",
    "matching.contested_records",
    "matching.link_all_s",
    "trace.accounted_ratio",
    "matching.stream_submit_us",
    "matching.stream_drain_us",
    "common.pool_efficiency",
    "common.wal_append_us",
    "common.wal_bytes_per_record",
    "core.apply_p50_us",
    "core.apply_growth_ratio",
    "core.find_by_name_us",
    "core.snapshot_write_s",
    "core.snapshot_bytes",
    "core.store_profiles",
    "core.store_triples",
    "obs.scrape_render_ms",
    "obs.metric_series",
    "obs.scrape_bytes",
    "net.scrape_http_ms",
    "net.scrape_late_ms",
    "net.scrape_failed",
    "obs.metrics_overhead_ratio",
    "trace.overhead_ratio",
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".bench_build/perfbench/work";
  std::string corrupt;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool has_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
        has_workload = true;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") return false;
        args->tiny = value == "tiny";
      } else if (flag == "--work-dir") {
        args->work_dir = value;
      } else if (flag == "--corrupt") {
        args->corrupt = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && has_workload && args->seconds > 0.0;
}

/// Measured set-ups per run: at least this many, for at least this long.
/// A small corpus sets up in tens of milliseconds, and a median over a few
/// of those moved by a fifth between runs.
constexpr int kMinSetUps = 5;
constexpr double kSetUpSeconds = 2.0;

/// One full set-up: corpus, models, and the stream linker and ops server
/// started (then stopped) in a scratch directory.
struct SetUp {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<Models> models;
  double total_s = 0.0;
  double generate_s = 0.0;
  TrainTimes train;
  bool ok = true;
};

SetUp RunSetUp(const Workload& workload, uint64_t seed,
               const std::string& dir, CpuRotation* cpus) {
  SetUp out;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  // Generation and training run pinned; the linker and server start
  // unpinned, so that the server's threads are not pinned with the caller.
  cpus->Next();
  const auto start = Clock::now();
  out.corpus = GenerateCorpus(workload, seed);
  out.generate_s = SecondsSince(start);
  out.models = TrainModels(*out.corpus, &out.train);
  cpus->Release();
  maroon::StreamLinkerOptions options;
  options.wal_path = dir + "/profiles.wal";
  options.snapshot_dir = dir + "/snapshots";
  auto linker = maroon::StreamLinker::Open(options);
  maroon::obs::OpsServerOptions server_options;
  server_options.http.num_workers = 1;
  auto server = maroon::obs::OpsServer::Start(server_options);
  out.total_s = SecondsSince(start);
  out.ok = linker.ok() && server.ok();
  if (server.ok()) (*server)->Stop();
  if (linker.ok()) out.ok = linker->Close().ok() && out.ok;
  std::filesystem::remove_all(dir, ec);
  return out;
}

/// Spends `seconds` on LinkAll rounds and streaming steps (an ingest, or
/// one recovery), interleaved: each step goes to the path that has had less
/// than its share of the time so far, so both paths sample the whole
/// window. The shared VM the benchmark was tuned on drifts in speed over
/// tens of seconds, and a path given only one end of the run would carry
/// that drift alone. A round starts only if, at the mean round time, it
/// ends within the budget; a pass starts only if, at the mean pass time
/// plus the rounds that interleave with it, it does. A started pass always
/// runs to its last recovery. When the path whose turn it is may not
/// start, the other path uses up the window. There are at least two rounds
/// (the round-to-round gate needs two) and one pass.
void Interleave(BatchPath* batch, StreamPath* stream, double batch_share,
                double seconds) {
  double batch_s = 0.0;
  double stream_s = 0.0;
  double passes_s = 0.0;  // stream_s spent in completed passes
  const auto start = Clock::now();
  for (;;) {
    const double left = seconds - SecondsSince(start);
    const bool batch_may =
        batch->rounds() < 2 || batch_s / batch->rounds() <= left;
    const bool stream_may =
        !stream->broken() &&
        (stream->mid_pass() || stream->passes() == 0 ||
         passes_s / stream->passes() / (1.0 - batch_share) <= left);
    if (!batch_may && !stream_may) return;
    bool batch_turn = batch_s * (1.0 - batch_share) <= stream_s * batch_share;
    if (!(batch_turn ? batch_may : stream_may)) batch_turn = !batch_turn;
    const auto step_start = Clock::now();
    if (batch_turn) {
      batch->Round();
      batch_s += SecondsSince(step_start);
    } else {
      stream->Step();
      stream_s += SecondsSince(step_start);
      if (!stream->mid_pass()) passes_s = stream_s;
    }
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: maroon_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] "
                 "[--work-dir DIR] [--corrupt GATE]\n";
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload, args.tiny);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'; one of:";
    for (const std::string& name : WorkloadNames()) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  const std::string work_dir = args.work_dir + "/" + workload->name + "-" +
                               std::to_string(args.seed);
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);

  const auto run_start = Clock::now();
  Report report;
  // The pools LinkAll and model training run on are started once, before
  // anything is timed, and before CpuRotation pins a caller: threads
  // started while a caller is pinned would inherit its CPU.
  maroon::ThreadPool::Shared(kPoolWidth);
  // TransitionModel::Train's pool: MAROON_THREADS wide, and without
  // threads when that is unset.
  maroon::ThreadPool::Shared(0);

  // Untimed set-ups first, for at least a second and a half: the first
  // second or so of a fresh process on a shared VM runs markedly slower.
  CpuRotation setup_cpus;
  const auto warm_start = Clock::now();
  do {
    const SetUp warm =
        RunSetUp(*workload, args.seed, work_dir + "/setup", &setup_cpus);
    report.Gate("setup", warm.ok, "linker open and ops server start");
  } while (SecondsSince(warm_start) < 1.5);

  // Set-up, repeated: setup_s is the median of the repeats.
  Samples setup_s;
  Samples generate_s;
  Samples transition_s;
  Samples freshness_s;
  SetUp kept;
  const auto setups_start = Clock::now();
  for (int i = 0; i < kMinSetUps ||
                  SecondsSince(setups_start) < kSetUpSeconds;
       ++i) {
    kept = SetUp();  // free the previous corpus first: peak RSS holds one
    kept = RunSetUp(*workload, args.seed, work_dir + "/setup", &setup_cpus);
    report.Gate("setup", kept.ok, "linker open and ops server start");
    setup_s.Add(kept.total_s);
    generate_s.Add(kept.generate_s);
    transition_s.Add(kept.train.transition_s);
    freshness_s.Add(kept.train.freshness_s);
  }
  report.Metric("setup_s", setup_s.Median(), "s");
  report.Metric("datagen.generate_s", generate_s.Median(), "s");
  report.Metric("transition.train_s", transition_s.Median(), "s");
  report.Metric("freshness.train_s", freshness_s.Median(), "s");
  report.Describe("setup", setup_s, 1.0, "s");

  const Corpus& corpus = *kept.corpus;
  report.Info("host nproc=" +
              std::to_string(std::thread::hardware_concurrency()) +
              " pool_width=" + std::to_string(kPoolWidth) +
              " wal_sync_every=" + std::to_string(workload->wal_sync_every) +
              " workload=" + workload->name +
              " size=" + (args.tiny ? "tiny" : "full") +
              " seed=" + std::to_string(args.seed) +
              " seconds=" + std::to_string(args.seconds) +
              " trace=" + (args.trace ? "1" : "0") +
              " corpus=" + (workload->dblp ? "dblp" : "recruitment") +
              " entities=" + std::to_string(corpus.targets.size()) +
              " names=" + std::to_string(workload->names) +
              " records=" + std::to_string(corpus.dataset.NumRecords()) +
              " stream_records=" + std::to_string(corpus.stream.size()) +
              " training_entities=" + std::to_string(corpus.training.size()));

  RunContext ctx;
  ctx.workload = workload;
  ctx.work_dir = work_dir;
  ctx.corrupt = args.corrupt;
  ctx.corpus = &corpus;
  ctx.models = kept.models.get();
  ctx.report = &report;
  ctx.traced = args.trace;
  ctx.deadline = run_start + std::chrono::seconds(90);

  {
    const TracingScope tracing(args.trace);
    BatchPath batch(ctx);
    StreamPath stream(ctx);
    if (args.trace) {
      // A fixed amount of work: two LinkAll rounds and the batch layer
      // passes, then one traced ingest pass, after an untraced one when
      // streaming is the main path (the tracing overhead is their ratio).
      batch.Round();
      batch.Round();
      batch.Finish();
      if (!BatchIsMain(ctx)) stream.Pass(false);
      stream.Pass(true);
      stream.Finish();
    } else {
      Interleave(&batch, &stream, workload->batch_share, args.seconds);
      batch.Finish();
      stream.Finish();
    }
  }

  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("ok_ratio", report.OkRatio(), "ratio");
  if (args.trace) {
    const std::string path = args.work_dir + "/" + workload->name + "-" +
                             std::to_string(args.seed) + ".trace.json";
    std::ofstream out(path, std::ios::trunc);
    out << maroon::obs::Tracer::Global().ToChromeTraceJson() << "\n";
    out.close();
    report.Gate("trace_written", static_cast<bool>(out), path);
    report.Info("trace spans=" +
                std::to_string(maroon::obs::Tracer::Global().span_count()) +
                " file=" + path);
  }
  std::filesystem::remove_all(work_dir, ec);
  report.PrintResult(args.trace ? kPerLayer : kEndToEnd);
  if (!report.correct()) {
    std::cerr << "maroon_perfbench: a correctness gate failed (see the "
                 "'# gate' lines)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
