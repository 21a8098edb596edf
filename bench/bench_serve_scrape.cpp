// Scrape-latency study (ours): what a Prometheus scrape of the live ops
// plane costs at full registry width. Populates the global MetricsRegistry
// with the series a long-running `maroon_cli serve` process carries
// (stream counters, per-record and per-entity latency histograms, build
// info), then measures
//   - mode "render":  PrometheusTextFromGlobal() — snapshot + text
//     serialization, the work /metrics does in-process;
//   - mode "http":    a full GET /metrics against an in-process OpsServer
//     over a loopback socket — what a real scraper observes.
// Exact p50/p99 over the per-iteration samples feed the serve_scrape rows
// of BENCH_runtime.json, gated by maroon_benchdiff like every other row.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "net/http_client.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/ops_server.h"
#include "obs/prometheus.h"

namespace maroon::bench {
namespace {

/// Fills the global registry with the series mix of a serving process:
/// the stream/link counters, a handful of gauges, and latency histograms
/// dense enough that every scrape renders the full bucket ladder.
void PopulateRegistry() {
  obs::MetricsRegistry::SetEnabled(true);
  obs::RegisterBuildMetrics();
  const char* counters[] = {
      "maroon.stream.applied",     "maroon.stream.rejected",
      "maroon.stream.shed",        "maroon.stream.retries",
      "maroon.stream.snapshots",   "maroon.stream.resumed_skips",
      "maroon.phase1.clusters_formed", "maroon.phase2.evidence_updates",
      "maroon.validation.issues",  "maroon.ops.scrapes",
  };
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  int64_t base = 1;
  for (const char* name : counters) {
    registry.GetCounter(name)->Add(base);
    base += 37;
  }
  MAROON_GAUGE("maroon.stream.queue_depth")->Set(12);
  MAROON_GAUGE("maroon.store.entities")->Set(4096);
  const char* histograms[] = {
      "maroon.stream.record_seconds", "maroon.link.entity_seconds",
      "maroon.ops.scrape_seconds",    "maroon.phase1.partition_seconds",
  };
  for (const char* name : histograms) {
    obs::Histogram* h = registry.GetHistogram(name);
    for (int i = 0; i < 10000; ++i) {
      h->Record(1e-5 * (1 + i % 997));
    }
  }
}

struct ScrapeResult {
  double p50_ms = 0;
  double p99_ms = 0;
  double bytes = 0;
  int iterations = 0;
};

ScrapeResult Percentiles(std::vector<double>* samples_s, double bytes) {
  std::sort(samples_s->begin(), samples_s->end());
  ScrapeResult result;
  result.p50_ms = obs::PercentileOfSorted(*samples_s, 0.50) * 1e3;
  result.p99_ms = obs::PercentileOfSorted(*samples_s, 0.99) * 1e3;
  result.bytes = bytes;
  result.iterations = static_cast<int>(samples_s->size());
  return result;
}

ScrapeResult RunRenderStudy(int iterations) {
  std::vector<double> samples_s;
  samples_s.reserve(static_cast<size_t>(iterations));
  size_t bytes = 0;
  for (int i = 0; i < iterations; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const std::string text = obs::PrometheusTextFromGlobal();
    samples_s.push_back(SecondsSince(start));
    bytes = text.size();
    MAROON_CHECK(!text.empty()) << "empty exposition from a full registry";
  }
  return Percentiles(&samples_s, static_cast<double>(bytes));
}

ScrapeResult RunHttpStudy(int iterations) {
  obs::OpsServerOptions options;
  options.http.port = 0;
  auto server = obs::OpsServer::Start(std::move(options));
  MAROON_CHECK(server.ok()) << server.status();
  const int port = (*server)->port();

  std::vector<double> samples_s;
  samples_s.reserve(static_cast<size_t>(iterations));
  size_t bytes = 0;
  for (int i = 0; i < iterations; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto response = net::HttpGet("127.0.0.1", port, "/metrics");
    samples_s.push_back(SecondsSince(start));
    MAROON_CHECK(response.ok()) << response.status();
    MAROON_CHECK(response->status == 200) << response->status;
    bytes = response->body.size();
  }
  (*server)->Stop();
  return Percentiles(&samples_s, static_cast<double>(bytes));
}

void EmitScrapeRow(const char* mode, const ScrapeResult& r) {
  EmitBenchRow("serve_scrape", {{"mode", mode}},
               {{"iterations", static_cast<double>(r.iterations)},
                {"p50_ms", r.p50_ms},
                {"p99_ms", r.p99_ms},
                {"bytes", r.bytes}});
}

void RunScrapeStudy() {
  PrintHeader("Serve scrape: /metrics render + serve latency");
  PopulateRegistry();
  const int iterations = 200 * Scale();

  const ScrapeResult render = RunRenderStudy(iterations);
  const ScrapeResult http = RunHttpStudy(iterations);

  std::cout << "mode     iters  p50_ms   p99_ms   bytes\n";
  const auto print = [](const char* mode, const ScrapeResult& r) {
    std::cout << "  " << mode << "  " << r.iterations << "  "
              << FormatDouble(r.p50_ms, 4) << "  "
              << FormatDouble(r.p99_ms, 4) << "  " << r.bytes << "\n";
  };
  print("render", render);
  print("http  ", http);

  EmitScrapeRow("render", render);
  EmitScrapeRow("http", http);
}

}  // namespace
}  // namespace maroon::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  maroon::bench::RunScrapeStudy();
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
