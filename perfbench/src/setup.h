// Workload definitions and set-up: corpus generation and model training.

#ifndef MAROON_PERFBENCH_SETUP_H_
#define MAROON_PERFBENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "freshness/freshness_model.h"
#include "matching/maroon.h"
#include "similarity/record_similarity.h"
#include "similarity/tfidf.h"
#include "transition/transition_model.h"

namespace perfbench {

/// One workload: a corpus shape plus how a run splits its time between the
/// batch path (BatchLinker::LinkAll) and the streaming path (StreamLinker).
/// Every workload runs both paths so that every metric is measured on every
/// workload; `batch_share` sets where the weight lies.
struct Workload {
  std::string name;
  bool dblp = false;          // DBLP-shaped corpus, else Recruitment
  size_t entities = 0;
  size_t names = 0;
  /// Share of the measured seconds spent on LinkAll rounds; the rest goes
  /// to streaming-ingest passes.
  double batch_share = 0.5;
  /// Records (earliest first) fed to each streaming pass; 0 = all.
  size_t stream_records = 0;
  /// fsync cadence of the streaming passes' WAL, in frames (the WalWriter
  /// sync_every option); 0 syncs only at close.
  int wal_sync_every = 1;
  /// Quality floors: a run whose F1 falls below them fails its gate.
  double link_f1_floor = 0.0;
  double ingest_f1_floor = 0.0;
  /// On a workload whose main path is batch linking, a traced run fails its
  /// gate unless |trace.accounted_ratio - 1| is within this.
  double accounted_tolerance = 0.2;
};

/// The named workload at full or tiny size; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name, bool tiny);
std::vector<std::string> WorkloadNames();

/// LinkAll's pool width on every workload.
inline constexpr int kPoolWidth = 2;

/// A generated corpus and the inputs derived from it.
struct Corpus {
  maroon::Dataset dataset;
  /// Every registered target, in id order (the batch load).
  std::vector<maroon::EntityId> targets;
  /// Deterministic half of the targets whose ground truth trains the models.
  std::vector<maroon::EntityId> training;
  /// Records in (timestamp, id) order, capped at the workload's
  /// stream_records: the streaming load.
  std::vector<const maroon::TemporalRecord*> stream;
};

std::unique_ptr<Corpus> GenerateCorpus(const Workload& workload,
                                       uint64_t seed);

/// Trained models plus the Maroon facade over them. Not movable: the facade
/// and the similarity calculator hold pointers into this object.
struct Models {
  maroon::ProfileSet training_profiles;
  std::unique_ptr<maroon::TransitionModel> transition;
  std::unique_ptr<maroon::FreshnessModel> freshness;
  maroon::TfIdfModel tfidf;
  maroon::SimilarityCalculator similarity;
  maroon::MaroonOptions options;
  std::vector<maroon::Attribute> attributes;

  Models() = default;
  Models(const Models&) = delete;
  Models& operator=(const Models&) = delete;

  /// A freshly trained transition model. Each one starts with an empty
  /// probability cache, so every LinkAll round pays the same cold start a
  /// one-shot batch job pays.
  std::unique_ptr<maroon::TransitionModel> TrainTransition() const;
  /// A facade over `transition` and this object's other models.
  std::unique_ptr<maroon::Maroon> MakeMaroon(
      const maroon::TransitionModel* transition) const;
};

struct TrainTimes {
  double transition_s = 0.0;
  double freshness_s = 0.0;
};

std::unique_ptr<Models> TrainModels(const Corpus& corpus, TrainTimes* times);

}  // namespace perfbench

#endif  // MAROON_PERFBENCH_SETUP_H_
