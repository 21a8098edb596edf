// Scaling study (ours): end-to-end MAROON cost as the corpus grows — an
// engineering complement to the paper's fixed-size Figure 7. Reports
// per-entity linkage latency and total wall time over increasing entity
// counts, plus training-time growth for the transition model.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "matching/batch_linker.h"
#include "matching/maroon.h"
#include "obs/histogram.h"

namespace maroon::bench {
namespace {

/// FNV-1a over the batch assignment map, truncated to 53 bits so the hash
/// survives the JSON double round-trip exactly. Identical hashes across
/// thread counts prove the sweep timed the same computation.
double AssignmentHash(const BatchLinkResult& result) {
  Fnv1a fnv;
  for (const auto& [record, entity] : result.assignment) {
    fnv.U32(record);
    fnv.Bytes(entity);
    fnv.Byte(0xff);
  }
  return static_cast<double>(fnv.hash() & ((uint64_t{1} << 53) - 1));
}

/// Thread sweep on the paper-sized DBLP corpus: the whole parallel surface
/// (sharded training, parallel evaluation, batch linking) at 1/2/4/8
/// threads. The committed baseline records wall times from the CI host —
/// speedups there reflect that host's core count, not the code's ceiling —
/// plus a result hash that must be identical at every width.
void PrintThreadSweep() {
  PrintHeader("Thread sweep: MAROON end-to-end vs threads (DBLP)");
  const DblpCorpus corpus = GenerateDblpCorpus(BenchDblpOptions());
  std::vector<EntityId> targets;
  for (const auto& [id, target] : corpus.dataset.targets()) {
    targets.push_back(id);
  }
  std::cout << "threads  train_s  eval_s  batch_s  total_s  result_hash\n";
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool::SetDefaultThreadCount(threads);

    const auto train_start = std::chrono::steady_clock::now();
    Experiment experiment(&corpus.dataset, BenchExperimentOptions());
    experiment.Prepare();
    const double train_s = SecondsSince(train_start);

    const auto eval_start = std::chrono::steady_clock::now();
    const ExperimentResult r = experiment.Run(Method::kMaroon);
    const double eval_s = SecondsSince(eval_start);

    MaroonOptions maroon_options;
    maroon_options.matcher.single_valued_attributes =
        corpus.dataset.attributes();
    const Maroon maroon(&experiment.transition_model(),
                        &experiment.freshness_model(),
                        &experiment.similarity(), corpus.dataset.attributes(),
                        maroon_options);
    const auto batch_start = std::chrono::steady_clock::now();
    const BatchLinkResult batch =
        BatchLinker(&maroon).LinkAll(corpus.dataset, targets);
    const double batch_s = SecondsSince(batch_start);

    const double hash = AssignmentHash(batch);
    const double total_s = train_s + eval_s + batch_s;
    std::cout << "  " << threads << "      " << FormatDouble(train_s, 3)
              << "    " << FormatDouble(eval_s, 3) << "   "
              << FormatDouble(batch_s, 3) << "    "
              << FormatDouble(total_s, 3) << "    "
              << FormatDouble(hash, 0) << "\n";
    EmitBenchRow("thread_sweep", {{"corpus", "dblp"}, {"method", "MAROON"}},
                 {{"threads", static_cast<double>(threads)},
                  {"train_wall_s", train_s},
                  {"eval_wall_s", eval_s},
                  {"batch_wall_s", batch_s},
                  {"total_wall_s", total_s},
                  {"result_hash", hash},
                  {"entities", static_cast<double>(targets.size())}});
    benchmark::DoNotOptimize(r.f1);
  }
  ThreadPool::SetDefaultThreadCount(1);
}

void PrintScaling() {
  PrintHeader("Scaling: MAROON cost vs corpus size (Recruitment)");
  std::cout << "entities  records  train_s  link_total_s  per_entity_ms  "
               "p50_ms  p95_ms  p99_ms  p999_ms\n";
  for (size_t entities : {100, 300, 900}) {
    RecruitmentOptions data_options;
    data_options.seed = 2015;
    data_options.num_entities = entities;
    data_options.num_names = entities / 3;
    const Dataset dataset = GenerateRecruitmentDataset(data_options);

    ExperimentOptions options;
    options.max_eval_entities = 40;
    Experiment experiment(&dataset, options);
    const auto train_start = std::chrono::steady_clock::now();
    experiment.Prepare();
    const double train_seconds = SecondsSince(train_start);
    const ExperimentResult r = experiment.Run(Method::kMaroon);
    const double per_entity_ms =
        1000.0 * r.total_seconds() /
        static_cast<double>(r.entities_evaluated);
    // Tail latency from the exact per-entity samples (not the histogram
    // estimate): the scaling story is mean AND tail, since one slow name
    // cluster can dominate the wall clock.
    std::vector<double> latencies = r.per_entity_link_seconds;
    std::sort(latencies.begin(), latencies.end());
    const double p50_ms = 1e3 * obs::PercentileOfSorted(latencies, 0.50);
    const double p95_ms = 1e3 * obs::PercentileOfSorted(latencies, 0.95);
    const double p99_ms = 1e3 * obs::PercentileOfSorted(latencies, 0.99);
    const double p999_ms = 1e3 * obs::PercentileOfSorted(latencies, 0.999);
    std::cout << "  " << entities << "      " << dataset.NumRecords()
              << "    " << FormatDouble(train_seconds, 2) << "     "
              << FormatDouble(r.total_seconds(), 3) << "         "
              << FormatDouble(per_entity_ms, 2) << "        "
              << FormatDouble(p50_ms, 2) << "   " << FormatDouble(p95_ms, 2)
              << "   " << FormatDouble(p99_ms, 2) << "   "
              << FormatDouble(p999_ms, 2) << "\n";
    EmitBenchRow("scaling", {{"corpus", "recruitment"}, {"method", "MAROON"}},
                 {{"entities", static_cast<double>(entities)},
                  {"records", static_cast<double>(dataset.NumRecords())},
                  {"threads",
                   static_cast<double>(ThreadPool::DefaultThreadCount())},
                  {"train_s", train_seconds},
                  {"link_total_s", r.total_seconds()},
                  {"per_entity_ms", per_entity_ms},
                  {"per_entity_p50_ms", p50_ms},
                  {"per_entity_p95_ms", p95_ms},
                  {"per_entity_p99_ms", p99_ms},
                  {"per_entity_p999_ms", p999_ms}});
  }
}

void BM_EndToEnd(benchmark::State& state) {
  RecruitmentOptions data_options;
  data_options.seed = 2015;
  data_options.num_entities = static_cast<size_t>(state.range(0));
  data_options.num_names = data_options.num_entities / 3;
  const Dataset dataset = GenerateRecruitmentDataset(data_options);
  ExperimentOptions options;
  options.max_eval_entities = 20;
  Experiment experiment(&dataset, options);
  experiment.Prepare();
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiment.Run(Method::kMaroon).f1);
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_EndToEnd)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace maroon::bench

int main(int argc, char** argv) {
  maroon::bench::PrintScaling();
  maroon::bench::PrintThreadSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
