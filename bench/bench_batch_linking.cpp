// Deployment-shape benchmark (ours): batch-linking every target entity of a
// corpus with exclusive record assignment — the workload a production
// deployment runs nightly. Reports contested-record statistics and
// throughput.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "matching/batch_linker.h"

namespace maroon::bench {
namespace {

void PrintBatchSummary() {
  PrintHeader("Batch linking: all entities, exclusive record assignment");
  const Dataset dataset =
      GenerateRecruitmentDataset(BenchRecruitmentOptions());
  Experiment experiment(&dataset, BenchExperimentOptions());
  experiment.Prepare();

  MaroonOptions options;
  options.matcher.single_valued_attributes = dataset.attributes();
  Maroon maroon(&experiment.transition_model(), &experiment.freshness_model(),
                &experiment.similarity(), dataset.attributes(), options);

  std::vector<EntityId> targets;
  for (const auto& [id, t] : dataset.targets()) targets.push_back(id);

  BatchLinker linker(&maroon);
  const auto start = std::chrono::steady_clock::now();
  const BatchLinkResult result = linker.LinkAll(dataset, targets);
  const double seconds = SecondsSince(start);

  std::cout << "entities:            " << targets.size() << "\n";
  std::cout << "records assigned:    " << result.assignment.size() << " of "
            << dataset.NumRecords() << "\n";
  std::cout << "contested records:   " << result.contested_records << " ("
            << FormatDouble(100.0 *
                                static_cast<double>(result.contested_records) /
                                static_cast<double>(
                                    std::max<size_t>(1,
                                                     result.assignment.size())),
                            1)
            << "% of assigned)\n";
  std::cout << "wall time:           " << FormatDouble(seconds, 2) << " s  ("
            << FormatDouble(1000.0 * seconds /
                                static_cast<double>(targets.size()),
                            2)
            << " ms/entity)\n";

  // Assignment correctness against ground truth.
  size_t correct = 0;
  for (const auto& [rid, entity] : result.assignment) {
    if (dataset.LabelOf(rid) == entity) ++correct;
  }
  std::cout << "assignment accuracy: "
            << FormatDouble(static_cast<double>(correct) /
                                static_cast<double>(
                                    std::max<size_t>(1,
                                                     result.assignment.size())),
                            3)
            << "\n";
}

void BM_BatchLinkAll(benchmark::State& state) {
  RecruitmentOptions data_options;
  data_options.seed = 2015;
  data_options.num_entities = static_cast<size_t>(state.range(0));
  data_options.num_names = data_options.num_entities / 3;
  const Dataset dataset = GenerateRecruitmentDataset(data_options);
  Experiment experiment(&dataset, {});
  experiment.Prepare();
  MaroonOptions options;
  options.matcher.single_valued_attributes = dataset.attributes();
  Maroon maroon(&experiment.transition_model(), &experiment.freshness_model(),
                &experiment.similarity(), dataset.attributes(), options);
  std::vector<EntityId> targets;
  for (const auto& [id, t] : dataset.targets()) targets.push_back(id);
  BatchLinker linker(&maroon);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linker.LinkAll(dataset, targets).assignment.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(targets.size()));
}
BENCHMARK(BM_BatchLinkAll)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace maroon::bench

int main(int argc, char** argv) {
  maroon::bench::PrintBatchSummary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
