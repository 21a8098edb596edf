#include "eval/experiment.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "baselines/temporal_model.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "eval/bootstrap.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace maroon {

std::string MethodName(Method method) {
  switch (method) {
    case Method::kMaroon:
      return "MAROON";
    case Method::kAfdsTransition:
      return "AFDS+Transition";
    case Method::kAfdsMuta:
      return "MUTA+AFDS";
    case Method::kAfdsDecay:
      return "DECAY+AFDS";
    case Method::kStatic:
      return "Static";
  }
  return "Unknown";
}

std::string ExperimentResult::ToString() const {
  std::ostringstream os;
  os << MethodName(method) << ": P=" << FormatDouble(precision, 3)
     << " R=" << FormatDouble(recall, 3) << " F1=" << FormatDouble(f1, 3)
     << " Acc=" << FormatDouble(accuracy, 3)
     << " Comp=" << FormatDouble(completeness, 3)
     << " t1=" << FormatDouble(phase1_seconds, 3) << "s"
     << " t2=" << FormatDouble(phase2_seconds, 3) << "s"
     << " (n=" << entities_evaluated << ")";
  return os.str();
}

std::string ExperimentResult::ToStringWithCi() const {
  const auto with_ci = [](double mean, const std::vector<double>& values) {
    const BootstrapInterval ci = BootstrapMeanInterval(values);
    return FormatDouble(mean, 3) + "±" + FormatDouble(ci.HalfWidth(), 3);
  };
  std::ostringstream os;
  os << MethodName(method) << ": P=" << with_ci(precision, per_entity_precision)
     << " R=" << with_ci(recall, per_entity_recall)
     << " F1=" << with_ci(f1, per_entity_f1)
     << " Acc=" << with_ci(accuracy, per_entity_accuracy)
     << " Comp=" << with_ci(completeness, per_entity_completeness)
     << " (n=" << entities_evaluated << ")";
  return os.str();
}

Experiment::Experiment(const Dataset* dataset, ExperimentOptions options)
    : dataset_(dataset), options_(std::move(options)) {}

void Experiment::Prepare() {
  MAROON_TRACE_SPAN("experiment.prepare");
  // Deterministic train/test split over target entities.
  std::vector<EntityId> ids;
  ids.reserve(dataset_->targets().size());
  for (const auto& [id, target] : dataset_->targets()) ids.push_back(id);
  Random rng(options_.split_seed);
  rng.Shuffle(ids);
  const size_t train_count = static_cast<size_t>(
      static_cast<double>(ids.size()) * options_.train_fraction);
  training_entities_.assign(ids.begin(), ids.begin() + train_count);
  test_entities_.assign(ids.begin() + train_count, ids.end());

  // Training profiles: the ground-truth histories of the training entities
  // (the paper's clean & complete profiles).
  ProfileSet training_profiles;
  training_profiles.reserve(training_entities_.size());
  for (const EntityId& id : training_entities_) {
    auto target = dataset_->target(id);
    if (target.ok()) training_profiles.push_back((*target)->ground_truth);
  }

  const std::vector<Attribute>& attributes = dataset_->attributes();
  transition_ =
      TransitionModel::Train(training_profiles, attributes,
                             options_.transition);
  freshness_ = FreshnessModel::Train(*dataset_, training_entities_);
  reliability_model_ = ReliabilityModel::Train(*dataset_, training_entities_);
  muta_ = MutaModel::Train(training_profiles, attributes);
  decay_ = DecayModel::Train(training_profiles, attributes);

  // TF-IDF over every record's token bag (set-valued attribute similarity).
  tfidf_ = TfIdfModel();
  for (const TemporalRecord& r : dataset_->records()) {
    std::vector<std::string> tokens;
    for (const auto& [attr, values] : r.values()) {
      std::vector<std::string> vt = ValueSetTokens(values);
      tokens.insert(tokens.end(), vt.begin(), vt.end());
    }
    tfidf_.AddDocument(tokens);
  }
  similarity_calc_.SetTfIdfModel(&tfidf_);

  BlockerOptions blocker_options;
  blocker_options.fuzzy = options_.use_fuzzy_blocking;
  blocker_ = NameBlocker(blocker_options);
  blocker_.Index(*dataset_);
  prepared_ = true;
}

Experiment::PerEntityOutcome Experiment::RunOne(
    Method method, const EntityId& /*id*/, const TargetEntity& target,
    const std::vector<const TemporalRecord*>& candidates) const {
  PerEntityOutcome outcome;
  const std::vector<Attribute>& attributes = dataset_->attributes();

  switch (method) {
    case Method::kMaroon: {
      MaroonOptions mo = options_.maroon;
      if (mo.matcher.single_valued_attributes.empty()) {
        mo.matcher.single_valued_attributes = attributes;
      }
      Maroon maroon(&transition_, &freshness_, &similarity_calc_, attributes,
                    mo);
      if (options_.use_source_reliability) {
        maroon.SetReliabilityModel(&reliability_model_);
      }
      LinkResult link = maroon.Link(target.clean_profile, candidates);
      outcome.matched = std::move(link.match.matched_records);
      outcome.augmented = std::move(link.match.augmented_profile);
      outcome.phase1_seconds = link.timings.phase1_seconds;
      outcome.phase2_seconds = link.timings.phase2_seconds;
      return outcome;
    }
    case Method::kAfdsTransition:
    case Method::kAfdsMuta:
    case Method::kAfdsDecay: {
      const TransitionTemporalModel transition_adapter(&transition_);
      const TemporalModel* model = nullptr;
      if (method == Method::kAfdsTransition) {
        model = &transition_adapter;
      } else if (method == Method::kAfdsMuta) {
        model = &muta_;
      } else {
        model = &decay_;
      }
      AfdsLinker linker(&similarity_calc_, model, attributes, options_.afds);
      AfdsResult result = linker.Link(target.clean_profile, candidates);
      outcome.matched = std::move(result.matched_records);
      outcome.augmented = std::move(result.augmented_profile);
      outcome.phase1_seconds = result.phase1_seconds;
      outcome.phase2_seconds = result.phase2_seconds;
      return outcome;
    }
    case Method::kStatic: {
      auto start = std::chrono::steady_clock::now();
      StaticLinkage linkage(&similarity_calc_, options_.static_linkage);
      outcome.matched = linkage.Link(target.clean_profile, candidates);
      outcome.phase1_seconds = SecondsSince(start);
      start = std::chrono::steady_clock::now();
      std::vector<const TemporalRecord*> matched_records;
      for (const TemporalRecord* r : candidates) {
        if (std::binary_search(outcome.matched.begin(), outcome.matched.end(),
                               r->id())) {
          matched_records.push_back(r);
        }
      }
      outcome.augmented =
          BuildProfileFromRecords(target.clean_profile, matched_records);
      outcome.phase2_seconds = SecondsSince(start);
      return outcome;
    }
  }
  return outcome;
}

ExperimentResult Experiment::Run(Method method) const {
  MAROON_TRACE_SPAN("experiment.run");
  ExperimentResult result;
  result.method = method;
  if (!prepared_) return result;

  MeanAccumulator precision, recall, f1, accuracy, completeness;
  double phase1 = 0.0, phase2 = 0.0;

  // Serial prepass: select the evaluated entities exactly as the serial
  // loop would (same skip conditions, same max_eval_entities cutoff).
  struct EvalEntry {
    const EntityId* id;
    const TargetEntity* target;
    std::vector<const TemporalRecord*> candidates;
  };
  std::vector<EvalEntry> entries;
  for (const EntityId& id : test_entities_) {
    if (options_.max_eval_entities != 0 &&
        entries.size() >= options_.max_eval_entities) {
      break;
    }
    auto target_or = dataset_->target(id);
    if (!target_or.ok()) continue;
    const TargetEntity& target = **target_or;

    std::vector<RecordId> candidate_ids =
        blocker_.Candidates(target.clean_profile.name());
    std::vector<const TemporalRecord*> candidates;
    candidates.reserve(candidate_ids.size());
    for (RecordId rid : candidate_ids) {
      candidates.push_back(&dataset_->record(rid));
    }
    if (candidates.empty()) continue;
    entries.push_back(EvalEntry{&id, &target, std::move(candidates)});
  }

  // Independent per-entity linkage, fanned out; outcomes land in their
  // entry's slot, so the accumulation below is order-identical to the
  // serial loop at any thread width.
  std::vector<PerEntityOutcome> outcomes(entries.size());
  const int width = ThreadPool::ResolveThreadCount(options_.threads);
  const auto run_one = [&](size_t i) {
    outcomes[i] =
        RunOne(method, *entries[i].id, *entries[i].target,
               entries[i].candidates);
  };
  if (width <= 1) {
    for (size_t i = 0; i < entries.size(); ++i) run_one(i);
  } else {
    ThreadPool::Shared(width)->ParallelFor(
        entries.size(), width, [&](int /*strand*/, size_t i) {
          obs::PoolTaskScope task("pool.eval_entity");
          run_one(i);
        });
  }

  size_t evaluated = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const EntityId& id = *entries[i].id;
    const TargetEntity& target = *entries[i].target;
    PerEntityOutcome& outcome = outcomes[i];

    const PrecisionRecall pr = ComputePrecisionRecall(
        outcome.matched, dataset_->TrueMatchesOf(id));
    precision.Add(pr.precision);
    recall.Add(pr.recall);
    f1.Add(pr.F1());
    result.per_entity_precision.push_back(pr.precision);
    result.per_entity_recall.push_back(pr.recall);
    result.per_entity_f1.push_back(pr.F1());

    const ProfileQuality quality = CompareProfiles(
        outcome.augmented, target.ground_truth, dataset_->attributes());
    accuracy.Add(quality.accuracy);
    completeness.Add(quality.completeness);
    result.per_entity_accuracy.push_back(quality.accuracy);
    result.per_entity_completeness.push_back(quality.completeness);

    phase1 += outcome.phase1_seconds;
    phase2 += outcome.phase2_seconds;
    // Tail-latency sample per entity, from timings the methods already
    // measured — no extra clock reads on this path.
    const double link_seconds =
        outcome.phase1_seconds + outcome.phase2_seconds;
    result.per_entity_link_seconds.push_back(link_seconds);
    MAROON_HISTOGRAM("maroon.experiment.entity_link_seconds")
        ->Record(link_seconds);
    ++evaluated;
  }

  result.precision = precision.Mean();
  result.recall = recall.Mean();
  result.f1 = f1.Mean();
  result.accuracy = accuracy.Mean();
  result.completeness = completeness.Mean();
  result.phase1_seconds = phase1;
  result.phase2_seconds = phase2;
  result.entities_evaluated = evaluated;
  MAROON_COUNTER("maroon.experiment.entities_evaluated")
      ->Add(static_cast<int64_t>(evaluated));
  return result;
}

}  // namespace maroon
