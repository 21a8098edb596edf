// Microbenchmarks of the core primitives: string similarity, TF-IDF,
// temporal-sequence queries, transition-table probability lookups, candidate
// blocking, and single-entity Phase I / Phase II runs. Pure google-benchmark
// — no reproduction table.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "freshness/freshness_model.h"
#include "matching/cluster_generator.h"
#include "matching/maroon.h"
#include "similarity/record_similarity.h"
#include "similarity/string_metrics.h"
#include "similarity/tfidf.h"
#include "transition/transition_model.h"

namespace maroon::bench {
namespace {

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JaroWinklerSimilarity("Quest Software", "Quest Systems"));
  }
}
BENCHMARK(BM_JaroWinkler);

// Corpus-shaped values average 11-21 bytes; this ~21-byte affiliation pair
// takes JaroSimilarity's bit-parallel path.
void BM_JaroWinklerAffiliation(benchmark::State& state) {
  const std::string a = "University of Toronto";
  const std::string b = "University of Trento";
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinklerSimilarity(a, b));
  }
}
BENCHMARK(BM_JaroWinklerAffiliation);

// A second string over 64 bytes takes the general matching loop.
void BM_JaroWinklerLong(benchmark::State& state) {
  const std::string a =
      "Department of Computer Science, University of Illinois at Urbana";
  const std::string b =
      "Dept. of Computer Science, University of Illinois Urbana-Champaign, IL";
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaroWinklerSimilarity(a, b));
  }
  state.counters["b_bytes"] = benchmark::Counter(static_cast<double>(b.size()));
}
BENCHMARK(BM_JaroWinklerLong);

void BM_TfIdfCosine(benchmark::State& state) {
  TfIdfModel model;
  model.AddDocument({"quest", "software", "manager"});
  model.AddDocument({"university", "of", "springfield"});
  model.AddDocument({"vertex", "labs", "engineer"});
  const std::vector<std::string> a = {"quest", "software", "director"};
  const std::vector<std::string> b = {"quest", "labs", "director"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.CosineSimilarity(a, b));
  }
}
BENCHMARK(BM_TfIdfCosine);

void BM_SequenceValuesAt(benchmark::State& state) {
  TemporalSequence seq;
  for (int i = 0; i < 20; ++i) {
    (void)seq.Append(Triple(static_cast<TimePoint>(2000 + 2 * i),
                            static_cast<TimePoint>(2001 + 2 * i),
                            MakeValueSet({std::string("v") +
                                          std::to_string(i)})));
  }
  TimePoint t = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.ValuesAt(t));
    t = t == 2039 ? 2000 : t + 1;
  }
}
BENCHMARK(BM_SequenceValuesAt);

TransitionModel TrainedModel(const Dataset& dataset) {
  ProfileSet profiles;
  for (const auto& [id, target] : dataset.targets()) {
    profiles.push_back(target.ground_truth);
  }
  return TransitionModel::Train(profiles, dataset.attributes());
}

void BM_IntervalProbability(benchmark::State& state) {
  const TransitionModel model =
      TrainedModel(GenerateRecruitmentDataset(BenchRecruitmentOptions()));
  const ValueSet from = MakeValueSet({"Manager"});
  const ValueSet to = MakeValueSet({"Director"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.IntervalProbability(
        kAttrTitle, from, to, Interval(2000, 2008), Interval(2010, 2012)));
  }
}
BENCHMARK(BM_IntervalProbability);

// Multi-valued DBLP coauthor sets, each with one name outside the trained
// vocabulary, so every smoothing case and the case-4 string comparison of
// two unseen values run.
void BM_IntervalProbabilityDblp(benchmark::State& state) {
  const Dataset dataset = GenerateDblpCorpus(BenchDblpOptions()).dataset;
  const TransitionModel model = TrainedModel(dataset);
  ValueSet from, to;
  Interval from_interval, to_interval;
  for (const auto& [id, target] : dataset.targets()) {
    const std::vector<Triple>& triples =
        target.ground_truth.sequence(kAttrCoauthors).triples();
    if (triples.size() < 2 || triples[0].values.size() < 2) continue;
    from = ValueSetUnion(triples[0].values, {"Unseen Coauthor A"});
    to = ValueSetUnion(triples[1].values, {"Unseen Coauthor B"});
    from_interval = triples[0].interval;
    to_interval = triples[1].interval;
    break;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.IntervalProbability(
        kAttrCoauthors, from, to, from_interval, to_interval));
  }
  state.counters["from_values"] =
      benchmark::Counter(static_cast<double>(from.size()));
  state.counters["to_values"] =
      benchmark::Counter(static_cast<double>(to.size()));
}
BENCHMARK(BM_IntervalProbabilityDblp);

// One target's candidate block out of a ~1e5-record Recruitment corpus
// (5,700 entities over 1,900 names, the shape of perfbench's
// batch_recruitment), cycling through every target.
void BM_CandidatesFor(benchmark::State& state) {
  RecruitmentOptions options;
  options.seed = 1;
  options.num_entities = 5700;
  options.num_names = 1900;
  const Dataset dataset = GenerateRecruitmentDataset(options);
  std::vector<EntityId> targets;
  for (const auto& [id, target] : dataset.targets()) targets.push_back(id);
  size_t next = 0;
  size_t candidates = 0;
  for (auto _ : state) {
    const size_t block = dataset.CandidatesFor(targets[next]).size();
    benchmark::DoNotOptimize(block);
    candidates += block;
    next = next + 1 == targets.size() ? 0 : next + 1;
  }
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(dataset.NumRecords()));
  state.counters["candidates"] = benchmark::Counter(
      static_cast<double>(candidates), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CandidatesFor)->Unit(benchmark::kMicrosecond);

void BM_SingleEntityLink(benchmark::State& state) {
  const Dataset dataset =
      GenerateRecruitmentDataset(BenchRecruitmentOptions());
  ProfileSet profiles;
  std::vector<EntityId> all_entities;
  for (const auto& [id, target] : dataset.targets()) {
    profiles.push_back(target.ground_truth);
    all_entities.push_back(id);
  }
  const TransitionModel transition =
      TransitionModel::Train(profiles, dataset.attributes());
  const FreshnessModel freshness =
      FreshnessModel::Train(dataset, all_entities);
  SimilarityCalculator similarity;
  MaroonOptions options;
  options.matcher.single_valued_attributes = dataset.attributes();
  Maroon maroon(&transition, &freshness, &similarity, dataset.attributes(),
                options);

  const EntityId& entity = all_entities.front();
  const auto target = dataset.target(entity);
  std::vector<const TemporalRecord*> candidates;
  for (RecordId id : dataset.CandidatesFor(entity)) {
    candidates.push_back(&dataset.record(id));
  }
  for (auto _ : state) {
    LinkResult r = maroon.Link((*target)->clean_profile, candidates);
    benchmark::DoNotOptimize(r.match.matched_records.size());
  }
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(candidates.size()));
}
BENCHMARK(BM_SingleEntityLink)->Unit(benchmark::kMicrosecond);

// One DBLP name block with the TF-IDF model Experiment::Prepare fits, so
// Phase I scores the set-valued coauthor lists by cosine (Recruitment above
// has no multi-valued cell and never reaches that path).
void BM_SingleEntityLinkDblp(benchmark::State& state) {
  const Dataset dataset = GenerateDblpCorpus(BenchDblpOptions()).dataset;
  Experiment experiment(&dataset);
  experiment.Prepare();
  MaroonOptions options;
  options.matcher.single_valued_attributes = dataset.attributes();
  Maroon maroon(&experiment.transition_model(), &experiment.freshness_model(),
                &experiment.similarity(), dataset.attributes(), options);

  const EntityId& entity = dataset.targets().begin()->first;
  const auto target = dataset.target(entity);
  std::vector<const TemporalRecord*> candidates;
  for (RecordId id : dataset.CandidatesFor(entity)) {
    candidates.push_back(&dataset.record(id));
  }
  for (auto _ : state) {
    LinkResult r = maroon.Link((*target)->clean_profile, candidates);
    benchmark::DoNotOptimize(r.match.matched_records.size());
  }
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(candidates.size()));
}
BENCHMARK(BM_SingleEntityLinkDblp)->Unit(benchmark::kMicrosecond);

// Phase I alone (Algorithm 2: PARTITION, stale placement, Eq. 11) on the
// DBLP name block above; its similarity memo starts empty on every call.
void BM_PhaseIGenerateDblp(benchmark::State& state) {
  const Dataset dataset = GenerateDblpCorpus(BenchDblpOptions()).dataset;
  Experiment experiment(&dataset);
  experiment.Prepare();
  const ClusterGenerator generator(&experiment.similarity(),
                                   &experiment.freshness_model(),
                                   dataset.attributes());
  std::vector<const TemporalRecord*> candidates;
  for (RecordId id : dataset.CandidatesFor(dataset.targets().begin()->first)) {
    candidates.push_back(&dataset.record(id));
  }
  size_t clusters = 0;
  for (auto _ : state) {
    clusters = generator.Generate(candidates).size();
    benchmark::DoNotOptimize(clusters);
  }
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(candidates.size()));
  state.counters["clusters"] =
      benchmark::Counter(static_cast<double>(clusters));
}
BENCHMARK(BM_PhaseIGenerateDblp)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace maroon::bench

BENCHMARK_MAIN();
