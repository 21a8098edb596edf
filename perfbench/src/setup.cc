#include "setup.h"

#include <algorithm>

#include "common/random.h"
#include "datagen/dblp_generator.h"
#include "datagen/recruitment_generator.h"
#include "harness.h"

namespace perfbench {
namespace {

using maroon::EntityId;
using maroon::TemporalRecord;

// Why each workload exists is recorded in perfbench/README.md and
// BENCHMARK.json; the sizes below are what the timings there assume. With
// fsync after every WAL frame, ingest swung by 30% to 2x between runs as
// the shared host's disk load changed. So stream_ingest syncs every 16th
// frame (group commit), which keeps fsync on the ingest path but out of
// ingest_p90_ms, and the batch workloads, whose streaming side is short,
// sync only at close. fsync per frame is timed by the WAL probe.
const Workload kWorkloads[] = {
    // DBLP at twice paper size, keeping the paper's ~10 authors per name:
    // Phase I/II dominate and the candidate scan is negligible. Twice the
    // names averages out part of the seed-to-seed cost variation that a
    // paper-sized corpus shows.
    {"batch_dblp", true, 432, 42, 0.6, 1000, 0, 0.50, 0.17, 0.2},
    // Recruitment at a size where the O(E·R) candidate scan is a visible
    // share of LinkAll.
    {"batch_recruitment", false, 5700, 1900, 0.6, 1000, 0, 0.55, 0.70,
     0.2},
    // ~5k Recruitment records into ~100 stored profiles, durable ingest.
    // The corpus size varies with the seed, and replay cost grows faster
    // than linearly with it, so every seed streams the same 5,000 records.
    {"stream_ingest", false, 300, 100, 0.25, 5000, 16, 0.52, 0.44, 0.2},
};

// Tiny corpora link in milliseconds, so the layer sum is a looser check.
const Workload kTinyWorkloads[] = {
    {"batch_dblp", true, 30, 3, 0.6, 0, 0, 0.30, 0.10, 0.5},
    {"batch_recruitment", false, 60, 20, 0.6, 300, 0, 0.40, 0.40, 0.5},
    {"stream_ingest", false, 60, 20, 0.3, 0, 16, 0.40, 0.30, 0.5},
};

}  // namespace

const Workload* FindWorkload(const std::string& name, bool tiny) {
  for (const Workload& w : tiny ? kTinyWorkloads : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.push_back(w.name);
  return names;
}

std::unique_ptr<Corpus> GenerateCorpus(const Workload& workload,
                                       uint64_t seed) {
  auto corpus = std::make_unique<Corpus>();
  if (workload.dblp) {
    maroon::DblpOptions options;
    options.seed = seed;
    options.num_entities = workload.entities;
    options.num_names = workload.names;
    corpus->dataset = maroon::GenerateDblpCorpus(options).dataset;
  } else {
    maroon::RecruitmentOptions options;
    options.seed = seed;
    options.num_entities = workload.entities;
    options.num_names = workload.names;
    corpus->dataset = maroon::GenerateRecruitmentDataset(options);
  }
  const maroon::Dataset& dataset = corpus->dataset;
  for (const auto& [id, target] : dataset.targets()) {
    corpus->targets.push_back(id);
  }
  // Same split rule as eval/experiment: a seeded shuffle, first half trains.
  std::vector<EntityId> shuffled = corpus->targets;
  maroon::Random rng(seed ^ 0x9e3779b97f4a7c15ull);
  rng.Shuffle(shuffled);
  corpus->training.assign(shuffled.begin(),
                          shuffled.begin() + shuffled.size() / 2);

  for (const TemporalRecord& record : dataset.records()) {
    corpus->stream.push_back(&record);
  }
  std::stable_sort(corpus->stream.begin(), corpus->stream.end(),
                   [](const TemporalRecord* a, const TemporalRecord* b) {
                     return a->timestamp() < b->timestamp();
                   });
  if (workload.stream_records > 0 &&
      corpus->stream.size() > workload.stream_records) {
    corpus->stream.resize(workload.stream_records);
  }
  return corpus;
}

std::unique_ptr<maroon::TransitionModel> Models::TrainTransition() const {
  return std::make_unique<maroon::TransitionModel>(
      maroon::TransitionModel::Train(training_profiles, attributes));
}

std::unique_ptr<maroon::Maroon> Models::MakeMaroon(
    const maroon::TransitionModel* model) const {
  return std::make_unique<maroon::Maroon>(model, freshness.get(), &similarity,
                                          attributes, options);
}

std::unique_ptr<Models> TrainModels(const Corpus& corpus, TrainTimes* times) {
  auto models = std::make_unique<Models>();
  const maroon::Dataset& dataset = corpus.dataset;
  models->attributes = dataset.attributes();
  models->options.matcher.single_valued_attributes = dataset.attributes();
  for (const EntityId& id : corpus.training) {
    auto target = dataset.target(id);
    if (target.ok()) models->training_profiles.push_back(
        (*target)->ground_truth);
  }

  auto start = Clock::now();
  models->transition = models->TrainTransition();
  times->transition_s = SecondsSince(start);

  start = Clock::now();
  models->freshness = std::make_unique<maroon::FreshnessModel>(
      maroon::FreshnessModel::Train(dataset, corpus.training));
  times->freshness_s = SecondsSince(start);

  // TF-IDF over every record's token bag, as eval/experiment prepares it.
  for (const TemporalRecord& record : dataset.records()) {
    std::vector<std::string> tokens;
    for (const auto& [attribute, values] : record.values()) {
      std::vector<std::string> value_tokens = maroon::ValueSetTokens(values);
      tokens.insert(tokens.end(), value_tokens.begin(), value_tokens.end());
    }
    models->tfidf.AddDocument(tokens);
  }
  models->similarity = maroon::SimilarityCalculator();
  models->similarity.SetTfIdfModel(&models->tfidf);
  return models;
}

}  // namespace perfbench
