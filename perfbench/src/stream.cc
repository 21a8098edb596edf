// The streaming path: the durable StreamLinker fed one record at a time
// (Submit, then Drain) by a single closed-loop caller, while a second thread
// scrapes GET /metrics from a real OpsServer over loopback in an open loop.
// Each pass starts from a fresh WAL directory and ends with recoveries that
// replay the whole WAL with no snapshot.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/profile_snapshot.h"
#include "core/profile_store.h"
#include "core/profile_wal.h"
#include "matching/stream_linker.h"
#include "net/http_client.h"
#include "obs/metrics.h"
#include "obs/ops_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using maroon::EntityId;
using maroon::ProfileStore;
using maroon::Status;
using maroon::StatusCode;
using maroon::StreamLinker;
using maroon::TemporalRecord;

/// Scrape rate of the open-loop generator: low enough that scrapes never
/// queue behind each other, high enough for hundreds of samples per pass.
constexpr double kScrapeHz = 20.0;
/// Snapshot cadence of the ingest linker, in applied records.
constexpr uint64_t kSnapshotEvery = 1000;
/// Whole-WAL recoveries timed after each ingest pass, one per CPU of the
/// development VM: recover_s is the mean over all of them.
constexpr int kRecoveriesPerPass = 4;
/// Records ingested on one CPU before the caller moves to the next.
constexpr size_t kRecordsPerCpu = 250;

/// Open-loop GET /metrics generator on its own thread. Scrape k is due at
/// start + k / rate; its latency runs from that due time, so a stall counts
/// against every scrape it delays, and the lateness of the send is kept.
class Scraper {
 public:
  explicit Scraper(int port) : port_(port) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  // Read only after Stop().
  Samples latency_s;
  Samples late_s;
  Samples bytes;
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  void Loop() {
    const auto start = Clock::now();
    const std::chrono::duration<double> period(1.0 / kScrapeHz);
    for (uint64_t k = 0;; ++k) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(period * k);
      while (!stop_.load() && Clock::now() < due) {
        std::this_thread::sleep_for(
            std::min<Clock::duration>(due - Clock::now(),
                                      std::chrono::milliseconds(5)));
      }
      if (stop_.load()) return;
      const auto sent = Clock::now();
      auto response = maroon::net::HttpGet("127.0.0.1", port_, "/metrics");
      const auto done = Clock::now();
      ++attempted;
      late_s.Add(std::chrono::duration<double>(sent - due).count());
      latency_s.Add(std::chrono::duration<double>(done - due).count());
      if (!response.ok() || response->status != 200) {
        ++failed;
      } else {
        bytes.Add(static_cast<double>(response->body.size()));
      }
    }
  }

  const int port_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: the loop reads every member above
};

/// The stream applied to a standalone ProfileStore with the same
/// ApplyRecordToStore the linker runs: the record -> profile grouping that
/// ingest_f1 scores, and the store every pass must reproduce.
struct Reference {
  ProfileStore store;
  std::vector<EntityId> landed;
  Samples apply_s;
  uint64_t hash = 0;
  bool ok = true;
};

Reference ApplyStandalone(const RunContext& ctx) {
  Reference ref;
  for (const TemporalRecord* record : ctx.corpus->stream) {
    SpanScope span("core.apply");
    auto landed = maroon::ApplyRecordToStore(*record, &ref.store);
    ref.apply_s.Add(span.Stop());
    if (!landed.ok()) {
      ref.ok = false;
      ref.landed.emplace_back();
      continue;
    }
    ref.landed.push_back(*landed);
  }
  ref.hash = maroon::HashProfileStore(ref.store);
  return ref;
}

/// Pairwise F1 of a record grouping against the generator's labels.
double PairwiseF1(const RunContext& ctx, const std::vector<EntityId>& group) {
  const maroon::Dataset& dataset = ctx.corpus->dataset;
  std::map<std::pair<EntityId, EntityId>, double> cells;
  std::map<EntityId, double> predicted;
  std::map<EntityId, double> truth;
  for (size_t i = 0; i < group.size(); ++i) {
    const EntityId& label = dataset.LabelOf(ctx.corpus->stream[i]->id());
    cells[{group[i], label}] += 1.0;
    predicted[group[i]] += 1.0;
    truth[label] += 1.0;
  }
  const auto pairs = [](const auto& counts) {
    double sum = 0.0;
    for (const auto& [key, n] : counts) sum += n * (n - 1.0) / 2.0;
    return sum;
  };
  const double together = pairs(cells);
  if (together == 0.0) return 0.0;
  const double precision = together / pairs(predicted);
  const double recall = together / pairs(truth);
  return 2.0 * precision * recall / (precision + recall);
}

uint64_t StoreTriples(const ProfileStore& store) {
  uint64_t triples = 0;
  for (const EntityId& id : store.Ids()) {
    auto profile = store.Get(id);
    if (!profile.ok()) continue;
    for (const auto& [attribute, sequence] : (*profile)->sequences()) {
      triples += sequence.size();
    }
  }
  return triples;
}

/// What one ingest pass measured.
struct PassResult {
  Samples ingest_s;  // per record, Submit -> Drain returned
  Samples submit_s;
  Samples drain_s;
  double ingest_wall_s = 0.0;
  Samples recover_s;  // one per replay of the pass's WAL
  // Where the pass left its WAL, and the live store it must recover to.
  std::string dir;
  std::string wal_path;
  uint64_t live_hash = 0;
  Samples render_s;  // traced passes only: OpsServer::Handle("/metrics")
  double metric_series = 0.0;
  std::unique_ptr<Scraper> scraper;
};

maroon::StreamLinkerOptions LinkerOptions(const RunContext& ctx,
                                          const std::string& dir) {
  maroon::StreamLinkerOptions options;
  options.wal_path = dir + "/profiles.wal";
  options.snapshot_dir = dir + "/snapshots";
  options.snapshot_every = kSnapshotEvery;
  options.wal.sync_every = ctx.workload->wal_sync_every;
  return options;
}

/// Streams the records into a fresh StreamLinker in `dir`, with /metrics
/// scraped meanwhile, and closes it. The caller steps through the CPUs
/// (`cpus`) every kRecordsPerCpu records. False when the linker or the ops
/// server did not start.
bool Ingest(const RunContext& ctx, const std::string& dir,
            uint64_t reference_hash, bool traced, CpuRotation* cpus,
            PassResult* pass) {
  const TracingScope tracing(traced);
  Report& report = *ctx.report;
  const std::vector<const TemporalRecord*>& records = ctx.corpus->stream;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  const maroon::StreamLinkerOptions options = LinkerOptions(ctx, dir);
  auto opened = StreamLinker::Open(options);
  if (!report.Gate("stream_open", opened.ok(),
                   opened.ok() ? "" : opened.status().message())) {
    return false;
  }
  StreamLinker linker = std::move(*opened);

  maroon::obs::OpsServerOptions server_options;
  server_options.http.num_workers = 1;
  auto server = maroon::obs::OpsServer::Start(server_options);
  if (!report.Gate("ops_server_start", server.ok(),
                   server.ok() ? "" : server.status().message())) {
    return false;
  }
  pass->scraper = std::make_unique<Scraper>((*server)->port());

  uint64_t retries = 0;
  uint64_t failures = 0;
  // Under the "accounting" corruption record 0 is offered twice; the
  // linker's durable-id filter drops the second copy without applying it.
  const size_t offers = records.size() + (Corrupt(ctx, "accounting") ? 1 : 0);
  const auto wall_start = Clock::now();
  for (size_t i = 0; i < offers; ++i) {
    const TemporalRecord& record = *records[i % records.size()];
    if (i % kRecordsPerCpu == 0) cpus->Next();
    const auto start = Clock::now();
    Status status;
    {
      SpanScope span("matching.stream_submit");
      status = linker.Submit(record);
      pass->submit_s.Add(span.Stop());
    }
    while (status.code() == StatusCode::kResourceExhausted) {
      // Backpressure: drain and resubmit; a retry, not a failure.
      ++retries;
      if (!linker.Drain().ok()) break;
      status = linker.Submit(record);
    }
    if (!status.ok() && status.code() != StatusCode::kInvalidArgument) {
      ++failures;
    }
    {
      SpanScope span("matching.stream_drain");
      status = linker.Drain();
      pass->drain_s.Add(span.Stop());
    }
    if (!status.ok()) ++failures;
    pass->ingest_s.Add(SecondsSince(start));
  }
  pass->ingest_wall_s = SecondsSince(wall_start);
  cpus->Release();

  if (traced) {
    // The render the scrapes pay, called in-process on the live registry.
    maroon::net::HttpRequest request;
    request.method = "GET";
    request.target = "/metrics";
    request.path = "/metrics";
    for (int i = 0; i < 20; ++i) {
      SpanScope span("obs.scrape_render");
      const maroon::net::HttpResponse response = (*server)->Handle(request);
      pass->render_s.Add(span.Stop());
      if (i == 0) {
        double series = 0.0;
        size_t begin = 0;
        while (begin < response.body.size()) {
          size_t end = response.body.find('\n', begin);
          if (end == std::string::npos) end = response.body.size();
          if (end > begin && response.body[begin] != '#') series += 1.0;
          begin = end + 1;
        }
        pass->metric_series = series;
      }
    }
  }
  pass->scraper->Stop();
  (*server)->Stop();
  report.Attempt(pass->scraper->attempted);
  report.Fail(pass->scraper->failed);

  const Status closed = linker.Close();
  report.Gate("stream_close", closed.ok(), closed.message());
  pass->dir = dir;
  pass->wal_path = options.wal_path;
  pass->live_hash = maroon::HashProfileStore(linker.store());
  const maroon::StreamLinkerStats& stats = linker.stats();
  report.Attempt(offers);
  report.Fail(failures);
  report.Gate("stream_accounting",
              stats.applied + stats.shed + stats.rejected == offers &&
                  linker.queue_depth() == 0,
              "applied=" + std::to_string(stats.applied) +
                  " shed=" + std::to_string(stats.shed) +
                  " rejected=" + std::to_string(stats.rejected) +
                  " retries=" + std::to_string(retries) +
                  " offered=" + std::to_string(offers));
  report.Gate("stream_store_equals_reference",
              pass->live_hash == reference_hash,
              "live store vs standalone ApplyRecordToStore");

  if (Corrupt(ctx, "recover")) {
    // Cut the last frame short: recovery drops it as a torn tail.
    const uintmax_t size = fs::file_size(options.wal_path, ec);
    if (!ec && size > 3) fs::resize_file(options.wal_path, size - 3, ec);
  }
  return true;
}

/// One timed recovery: StreamLinker::Open replaying the pass's whole WAL
/// with no snapshot, on the next CPU of `cpus`.
void Recover(const RunContext& ctx, CpuRotation* cpus, PassResult* pass) {
  Report& report = *ctx.report;
  maroon::StreamLinkerOptions options;
  options.wal_path = pass->wal_path;  // no snapshot directory
  cpus->Next();
  SpanScope span("matching.stream_recover");
  auto recovered = StreamLinker::Open(options);
  pass->recover_s.Add(span.Stop());
  cpus->Release();
  if (!report.Gate("stream_recover_open", recovered.ok(),
                   recovered.ok() ? "" : recovered.status().message())) {
    return;
  }
  report.Gate("recovered_equals_live",
              maroon::HashProfileStore(recovered->store()) == pass->live_hash,
              "store after WAL replay vs live store");
  const Status closed = recovered->Close();
  report.Gate("recover_close", closed.ok(), closed.message());
}

/// A whole pass at once: Ingest, then kRecoveriesPerPass recoveries.
void IngestPass(const RunContext& ctx, const std::string& dir,
                uint64_t reference_hash, bool traced, CpuRotation* cpus,
                PassResult* pass) {
  if (!Ingest(ctx, dir, reference_hash, traced, cpus, pass)) return;
  for (int replay = 0; replay < kRecoveriesPerPass; ++replay) {
    Recover(ctx, cpus, pass);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Per-layer probes of the store, WAL and snapshot layers on their own,
/// outside the linker.
void StoreProbes(const RunContext& ctx, Reference* ref) {
  Report& report = *ctx.report;
  const std::vector<const TemporalRecord*>& records = ctx.corpus->stream;

  report.Metric("core.apply_p50_us", 1e6 * ref->apply_s.Median(), "us");
  report.Describe("core.apply", ref->apply_s, 1e6, "us");
  // Mean apply cost over the last tenth of the stream against the first.
  const std::vector<double>& apply = ref->apply_s.values();
  const size_t tenth = std::max<size_t>(apply.size() / 10, 1);
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < tenth && i < apply.size(); ++i) {
    first += apply[i];
    last += apply[apply.size() - 1 - i];
  }
  report.Metric("core.apply_growth_ratio", last / first, "ratio");
  report.Metric("core.store_profiles",
                static_cast<double>(ref->store.size()), "count");
  report.Metric("core.store_triples",
                static_cast<double>(StoreTriples(ref->store)), "count");

  // FindByName right after a Put: the lazy index rebuild at full size.
  Samples find_s;
  const std::vector<EntityId> ids = ref->store.Ids();
  const auto find_start = Clock::now();
  for (size_t i = 0; i < 200 && !ids.empty(); ++i) {
    auto profile = ref->store.Get(ids[i % ids.size()]);
    if (!profile.ok()) break;
    const maroon::EntityProfile copy = **profile;
    ref->store.Put(copy);
    SpanScope span("core.find_by_name");
    const std::vector<EntityId> found = ref->store.FindByName(copy.name());
    find_s.Add(span.Stop());
    if (found.empty()) report.Fail();
    if (SecondsSince(find_start) > 1.0 && find_s.size() >= 20) break;
  }
  report.Metric("core.find_by_name_us", 1e6 * find_s.Median(), "us");
  report.Describe("core.find_by_name", find_s, 1e6, "us");

  const std::string dir = ctx.work_dir + "/probe";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  // WAL append with fsync per frame, on its own.
  Samples append_s;
  {
    maroon::WalWriterOptions options;
    options.sync_every = 1;
    const std::string path = dir + "/probe.wal";
    auto wal = maroon::ProfileWal::Open(path, options);
    if (report.Gate("probe_wal_open", wal.ok(), "")) {
      for (const TemporalRecord* record : records) {
        SpanScope span("common.wal_append");
        const Status appended = wal->Append(*record);
        append_s.Add(span.Stop());
        if (!appended.ok()) report.Fail();
      }
      report.Gate("probe_wal_close", wal->Close().ok(), "");
      report.Metric("common.wal_bytes_per_record",
                    static_cast<double>(fs::file_size(path, ec)) /
                        static_cast<double>(std::max<size_t>(records.size(),
                                                             1)),
                    "B");
    }
  }
  report.Metric("common.wal_append_us", 1e6 * append_s.Median(), "us");
  report.Describe("common.wal_append", append_s, 1e6, "us");

  Samples snapshot_s;
  double snapshot_bytes = 0.0;
  for (int i = 0; i < 5; ++i) {
    const std::string snap_dir = dir + "/snap" + std::to_string(i);
    fs::create_directories(snap_dir, ec);
    SpanScope span("core.snapshot_write");
    const Status written =
        maroon::WriteSnapshot(ref->store, records.size(), snap_dir);
    snapshot_s.Add(span.Stop());
    if (!report.Gate("probe_snapshot_write", written.ok(), written.message())) {
      break;
    }
    snapshot_bytes = static_cast<double>(fs::file_size(
        snap_dir + "/" + maroon::SnapshotFileName(records.size()), ec));
  }
  report.Metric("core.snapshot_write_s", snapshot_s.Median(), "s");
  report.Metric("core.snapshot_bytes", snapshot_bytes, "B");
  fs::remove_all(dir, ec);
}

}  // namespace

/// What the passes of a run have gathered.
struct StreamPath::State {
  Reference ref;
  uint64_t reference_hash = 0;
  Samples ingest_s;
  double ingest_wall_s = 0.0;
  Samples recover_s;
  Samples scrape_http_s;
  Samples scrape_late_s;
  Samples scrape_bytes;
  uint64_t scrape_failed = 0;
  PassResult traced;
  PassResult open;  // the untraced pass in progress
  int recoveries_left = 0;
  bool broken = false;
  CpuRotation cpus;
};

StreamPath::StreamPath(const RunContext& ctx)
    : ctx_(ctx), state_(std::make_unique<State>()) {
  Report& report = *ctx.report;
  State& st = *state_;
  st.ref = ApplyStandalone(ctx);
  report.Gate("reference_apply", st.ref.ok, "standalone ApplyRecordToStore");
  // Under the "reference" corruption no pass can reproduce the reference.
  st.reference_hash = st.ref.hash + (Corrupt(ctx, "reference") ? 1 : 0);
  std::vector<EntityId> grouping = st.ref.landed;
  if (Corrupt(ctx, "ingest_f1") && !grouping.empty()) {
    std::fill(grouping.begin(), grouping.end(), grouping.front());
  }
  const double f1 = PairwiseF1(ctx, grouping);
  report.Metric("ingest_f1", f1, "ratio");
  report.Gate("ingest_f1_floor", f1 >= ctx.workload->ingest_f1_floor,
              "f1=" + std::to_string(f1) + " floor=" +
                  std::to_string(ctx.workload->ingest_f1_floor));
}

StreamPath::~StreamPath() = default;

void StreamPath::Step() {
  State& st = *state_;
  if (st.broken) return;
  if (st.recoveries_left == 0) {
    st.open = PassResult();
    st.broken = !Ingest(ctx_, ctx_.work_dir + "/pass" + std::to_string(passes()),
                        st.reference_hash, false, &st.cpus, &st.open);
    st.recoveries_left = st.broken ? 0 : kRecoveriesPerPass;
    return;
  }
  Recover(ctx_, &st.cpus, &st.open);
  if (--st.recoveries_left > 0) return;
  PassResult& pass = st.open;
  std::error_code ec;
  fs::remove_all(pass.dir, ec);
  st.scrape_http_s.Append(pass.scraper->latency_s);
  st.scrape_late_s.Append(pass.scraper->late_s);
  st.scrape_bytes.Append(pass.scraper->bytes);
  st.scrape_failed += pass.scraper->failed;
  st.ingest_s.Append(pass.ingest_s);
  st.ingest_wall_s += pass.ingest_wall_s;
  pass_wall_s_.Add(pass.ingest_wall_s);
  st.recover_s.Append(pass.recover_s);
}

bool StreamPath::mid_pass() const { return state_->recoveries_left > 0; }

bool StreamPath::broken() const { return state_->broken; }

void StreamPath::Pass(bool traced) {
  State& st = *state_;
  if (!traced) {
    do {
      Step();
    } while (mid_pass());
    return;
  }
  IngestPass(ctx_, ctx_.work_dir + "/pass-traced", st.reference_hash, true,
             &st.cpus, &st.traced);
  if (st.traced.scraper == nullptr) return;
  st.scrape_http_s.Append(st.traced.scraper->latency_s);
  st.scrape_late_s.Append(st.traced.scraper->late_s);
  st.scrape_bytes.Append(st.traced.scraper->bytes);
  st.scrape_failed += st.traced.scraper->failed;
}

void StreamPath::Finish() {
  const RunContext& ctx = ctx_;
  Report& report = *ctx.report;
  State& st = *state_;
  const std::vector<const TemporalRecord*>& records = ctx.corpus->stream;
  report.Metric("ingest_records_per_s",
                static_cast<double>(pass_wall_s_.size() * records.size()) /
                    st.ingest_wall_s,
                "1/s");
  report.Metric("ingest_p50_ms", 1e3 * st.ingest_s.Median(), "ms");
  report.Metric("ingest_p90_ms", 1e3 * st.ingest_s.Quantile(0.9), "ms");
  report.Metric("recover_s", st.recover_s.Mean(), "s");
  report.Describe("stream.ingest_record", st.ingest_s, 1e3, "ms");
  report.Describe("stream.recover", st.recover_s, 1.0, "s");
  report.Describe("net.scrape_http", st.scrape_http_s, 1e3, "ms");
  report.Describe("net.scrape_late", st.scrape_late_s, 1e3, "ms");
  report.Info("stream passes=" + std::to_string(pass_wall_s_.size()) +
              " records=" + std::to_string(records.size()) +
              " wal_sync_every=" +
              std::to_string(ctx.workload->wal_sync_every) +
              " snapshot_every=" + std::to_string(kSnapshotEvery) +
              " scrape_hz=" + std::to_string(kScrapeHz) +
              " scrapes=" + std::to_string(st.scrape_http_s.size()) +
              " scrape_failed=" + std::to_string(st.scrape_failed));

  if (!ctx.traced) return;
  const PassResult& traced = st.traced;
  report.Metric("matching.stream_submit_us", 1e6 * traced.submit_s.Median(),
                "us");
  report.Metric("matching.stream_drain_us", 1e6 * traced.drain_s.Median(),
                "us");
  report.Describe("matching.stream_drain", traced.drain_s, 1e6, "us");
  report.Metric("obs.scrape_render_ms", 1e3 * traced.render_s.Median(), "ms");
  report.Metric("obs.metric_series", traced.metric_series, "count");
  report.Metric("obs.scrape_bytes", st.scrape_bytes.Median(), "B");
  report.Metric("net.scrape_http_ms", 1e3 * st.scrape_http_s.Median(), "ms");
  report.Metric("net.scrape_late_ms", 1e3 * st.scrape_late_s.Median(), "ms");
  report.Metric("net.scrape_failed", static_cast<double>(st.scrape_failed),
                "count");
  if (!BatchIsMain(ctx)) {
    report.Metric("trace.overhead_ratio",
                  traced.ingest_wall_s / pass_wall_s_.Median(), "ratio");
    // One more pass with the metrics registry off: on/off wall ratio.
    maroon::obs::MetricsRegistry::SetEnabled(false);
    PassResult off;
    IngestPass(ctx, ctx.work_dir + "/pass-metrics-off", st.reference_hash,
               false, &st.cpus, &off);
    maroon::obs::MetricsRegistry::SetEnabled(true);
    report.Metric("obs.metrics_overhead_ratio",
                  pass_wall_s_.Median() / off.ingest_wall_s, "ratio");
  }
  StoreProbes(ctx, &st.ref);
}

}  // namespace perfbench
