#ifndef MAROON_EVAL_EXPERIMENT_H_
#define MAROON_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/afds_linker.h"
#include "baselines/decay_model.h"
#include "baselines/muta_model.h"
#include "baselines/static_linkage.h"
#include "core/dataset.h"
#include "eval/metrics.h"
#include "freshness/freshness_model.h"
#include "freshness/reliability_model.h"
#include "matching/blocker.h"
#include "matching/maroon.h"
#include "similarity/record_similarity.h"
#include "transition/transition_model.h"

namespace maroon {

/// The linkage methods the evaluation compares (paper §5.3-§5.6):
///  - kMaroon            — full MAROON: source-aware clustering + transition
///                         model (the paper's MAROON and MAROON_SC);
///  - kAfdsTransition    — AFDS clustering, transition-model weights (the
///                         paper's MAROON_TR configuration of Fig. 4, and
///                         the "AFDS" side of Fig. 5);
///  - kAfdsMuta          — AFDS clustering, MUTA recurrence weights (the
///                         paper's MUTA and MUTA+AFDS);
///  - kAfdsDecay         — AFDS clustering, time-decay weights (extra
///                         baseline from ref. [18]);
///  - kStatic            — traditional non-temporal record linkage.
enum class Method {
  kMaroon,
  kAfdsTransition,
  kAfdsMuta,
  kAfdsDecay,
  kStatic,
};

std::string MethodName(Method method);

/// Experiment configuration.
struct ExperimentOptions {
  /// Fraction of target entities whose clean profiles train the models
  /// (the paper uses 50%); the rest are evaluated.
  double train_fraction = 0.5;
  uint64_t split_seed = 123;
  /// Cap on evaluated entities (0 = all test entities).
  size_t max_eval_entities = 0;
  /// Attach the trained reliability model to MAROON (the §6 extension for
  /// erroneous sources). Off by default to match the paper's setup.
  bool use_source_reliability = false;
  /// Candidate blocking: exact normalized names (paper protocol) when
  /// false; fuzzy Jaro-Winkler name matching when true (recovers records
  /// whose mentions carry typos).
  bool use_fuzzy_blocking = false;

  /// Worker threads for the per-entity evaluation loop of Run() (and the
  /// parameter sweeps built on it). <= 0 uses the process default
  /// (--threads / MAROON_THREADS, else 1). Results are identical at every
  /// width: entity selection and metric accumulation stay serial in test
  /// order; only the independent per-entity linkage fans out.
  int threads = 0;

  TransitionModelOptions transition;
  MaroonOptions maroon;
  AfdsOptions afds;
  StaticLinkageOptions static_linkage;
};

/// Aggregated results of one method over the test entities.
struct ExperimentResult {
  Method method = Method::kMaroon;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double accuracy = 0.0;
  double completeness = 0.0;
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  size_t entities_evaluated = 0;

  /// Per-entity metric values (parallel, one entry per evaluated entity);
  /// feed these to BootstrapMeanInterval for confidence intervals.
  std::vector<double> per_entity_precision;
  std::vector<double> per_entity_recall;
  std::vector<double> per_entity_f1;
  std::vector<double> per_entity_accuracy;
  std::vector<double> per_entity_completeness;
  /// Per-entity linkage wall time (phase 1 + phase 2), same order as the
  /// metric vectors; feed to PercentileOfSorted for tail-latency rows.
  std::vector<double> per_entity_link_seconds;

  double total_seconds() const { return phase1_seconds + phase2_seconds; }
  std::string ToString() const;
  /// Like ToString() but with 95% bootstrap half-widths after each metric.
  std::string ToStringWithCi() const;
};

/// Drives one dataset through the full pipeline: train/test split, model
/// training (transition, freshness, MUTA, decay, TF-IDF), then per-method
/// evaluation over the test targets. Shared by the benchmark binaries and
/// the examples.
class Experiment {
 public:
  /// `dataset` must outlive the experiment.
  Experiment(const Dataset* dataset, ExperimentOptions options = {});

  /// Splits entities and trains every model. Must be called before Run().
  void Prepare();

  /// Evaluates one method over the test entities.
  ExperimentResult Run(Method method) const;

  const TransitionModel& transition_model() const { return transition_; }
  const FreshnessModel& freshness_model() const { return freshness_; }
  const ReliabilityModel& reliability_model() const { return reliability_model_; }
  const MutaModel& muta_model() const { return muta_; }
  const DecayModel& decay_model() const { return decay_; }
  const SimilarityCalculator& similarity() const { return similarity_calc_; }
  const std::vector<EntityId>& training_entities() const {
    return training_entities_;
  }
  const std::vector<EntityId>& test_entities() const { return test_entities_; }

 private:
  struct PerEntityOutcome {
    std::vector<RecordId> matched;
    EntityProfile augmented;
    double phase1_seconds = 0.0;
    double phase2_seconds = 0.0;
  };

  PerEntityOutcome RunOne(Method method, const EntityId& id,
                          const TargetEntity& target,
                          const std::vector<const TemporalRecord*>& candidates)
      const;

  const Dataset* dataset_;
  ExperimentOptions options_;
  bool prepared_ = false;

  std::vector<EntityId> training_entities_;
  std::vector<EntityId> test_entities_;

  NameBlocker blocker_;
  TfIdfModel tfidf_;
  SimilarityCalculator similarity_calc_;
  TransitionModel transition_;
  FreshnessModel freshness_;
  ReliabilityModel reliability_model_;
  MutaModel muta_;
  DecayModel decay_;
};

}  // namespace maroon

#endif  // MAROON_EVAL_EXPERIMENT_H_
