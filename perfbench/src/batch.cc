// The batch path: BatchLinker::LinkAll over every target, in rounds.
//
// Untraced rounds give the end-to-end link rate. A traced run also links
// every target once at width 1 by calling each layer itself
// (Dataset::CandidatesFor, ClusterGenerator::Generate,
// ProfileMatcher::MatchAndAugment, then the claim resolution LinkAll runs),
// and checks that this recomposition computes what Maroon::Link and LinkAll
// compute, so that the layer timings describe the same work.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "matching/batch_linker.h"
#include "matching/cluster_generator.h"
#include "matching/profile_matcher.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using maroon::BatchLinker;
using maroon::BatchLinkOptions;
using maroon::BatchLinkResult;
using maroon::EntityId;
using maroon::EntityProfile;
using maroon::MatchResult;
using maroon::RecordId;
using maroon::TemporalRecord;

using Assignment = std::map<RecordId, EntityId>;

/// F1 of the record -> entity assignment against the generator's labels:
/// precision over assigned records, recall over every labelled record.
double AssignmentF1(const maroon::Dataset& dataset,
                    const Assignment& assignment) {
  size_t labelled = 0;
  for (RecordId r = 0; r < dataset.NumRecords(); ++r) {
    if (!dataset.LabelOf(r).empty()) ++labelled;
  }
  size_t correct = 0;
  for (const auto& [record, entity] : assignment) {
    if (dataset.LabelOf(record) == entity) ++correct;
  }
  if (correct == 0) return 0.0;
  const double precision =
      static_cast<double>(correct) / static_cast<double>(assignment.size());
  const double recall =
      static_cast<double>(correct) / static_cast<double>(labelled);
  return 2.0 * precision * recall / (precision + recall);
}

bool SameProfile(const EntityProfile& a, const EntityProfile& b) {
  if (a.id() != b.id() || a.name() != b.name() ||
      a.sequences().size() != b.sequences().size()) {
    return false;
  }
  for (const auto& [attribute, sequence] : a.sequences()) {
    auto it = b.sequences().find(attribute);
    if (it == b.sequences().end() ||
        it->second.triples() != sequence.triples()) {
      return false;
    }
  }
  return true;
}

bool SameMatch(const MatchResult& a, const MatchResult& b) {
  return a.matched_records == b.matched_records &&
         a.linked_clusters == b.linked_clusters &&
         a.pruned_clusters == b.pruned_clusters &&
         a.iterations == b.iterations &&
         a.degenerate_scores == b.degenerate_scores &&
         SameProfile(a.augmented_profile, b.augmented_profile);
}

std::vector<const TemporalRecord*> Candidates(const maroon::Dataset& dataset,
                                              const EntityId& id) {
  std::vector<const TemporalRecord*> out;
  for (RecordId rid : dataset.CandidatesFor(id)) {
    out.push_back(&dataset.record(rid));
  }
  return out;
}

/// Untimed warm-up before the rounds: LinkAll over this many targets,
/// repeated for this long.
constexpr size_t kWarmUpTargets = 32;
constexpr double kWarmUpSeconds = 1.0;

/// One LinkAll over every target with a freshly trained transition model.
struct RoundResult {
  BatchLinkResult result;
  double link_s = 0.0;
};

RoundResult LinkAllRound(const RunContext& ctx, int width) {
  RoundResult round;
  auto transition = ctx.models->TrainTransition();
  auto maroon = ctx.models->MakeMaroon(transition.get());
  BatchLinkOptions options;
  options.threads = width;
  const BatchLinker linker(maroon.get(), options);
  SpanScope span("matching.link_all_pool");
  round.result = linker.LinkAll(ctx.corpus->dataset, ctx.corpus->targets);
  round.link_s = span.Stop();
  return round;
}

/// The traced width-1 pass: every layer called separately, per target.
struct Recomposed {
  std::map<EntityId, MatchResult> per_entity;
  Assignment assignment;
  size_t contested = 0;
  size_t candidates = 0;
  size_t clusters = 0;
  size_t linked_clusters = 0;
  double wall_s = 0.0;  // the pass, span bookkeeping included
};

Recomposed RecomposeLinkAll(const RunContext& ctx,
                            const maroon::TransitionModel* transition) {
  const maroon::Dataset& dataset = ctx.corpus->dataset;
  const Models& models = *ctx.models;
  Recomposed out;
  const auto start = Clock::now();
  for (const EntityId& id : ctx.corpus->targets) {
    auto target = dataset.target(id);
    if (!target.ok()) continue;
    const EntityProfile& clean = (*target)->clean_profile;
    SpanScope entity("matching.entity");
    std::vector<const TemporalRecord*> candidates;
    {
      SpanScope span("core.candidates");
      candidates = Candidates(dataset, id);
    }
    out.candidates += candidates.size();
    // Maroon::Link drops degenerate candidates before Phase I.
    std::vector<const TemporalRecord*> usable;
    for (const TemporalRecord* record : candidates) {
      if (record != nullptr && !record->values().empty()) {
        usable.push_back(record);
      }
    }
    MatchResult match;
    if (usable.empty()) {
      match.augmented_profile = clean;
      match.augmented_profile.Normalize();
    } else {
      std::vector<maroon::GeneratedCluster> clusters;
      {
        SpanScope span("matching.phase1");
        const maroon::ClusterGenerator generator(
            &models.similarity, models.freshness.get(), models.attributes,
            models.options.cluster);
        clusters = generator.Generate(usable);
      }
      out.clusters += clusters.size();
      {
        SpanScope span("matching.phase2");
        const maroon::ProfileMatcher matcher(transition, models.attributes,
                                             models.options.matcher);
        match = matcher.MatchAndAugment(clean, clusters);
      }
      out.linked_clusters += match.linked_clusters.size();
    }
    out.per_entity[id] = std::move(match);
  }

  // Claim collection and conflict resolution, as LinkAll runs them: claims
  // in entity-id order, the best RecordProfileFit wins, with the default
  // similarity calculator LinkAll itself uses.
  {
    SpanScope span("matching.resolve");
    std::map<RecordId, std::vector<EntityId>> claims;
    for (const auto& [id, match] : out.per_entity) {
      for (RecordId rid : match.matched_records) claims[rid].push_back(id);
    }
    const maroon::SimilarityCalculator similarity;
    for (const auto& [rid, claimants] : claims) {
      if (claimants.size() == 1) {
        out.assignment[rid] = claimants.front();
        continue;
      }
      ++out.contested;
      const TemporalRecord& record = dataset.record(rid);
      EntityId winner = claimants.front();
      double best_fit = -1.0;
      for (const EntityId& id : claimants) {
        const double fit = BatchLinker::RecordProfileFit(
            out.per_entity[id].augmented_profile, record, similarity);
        if (fit > best_fit) {
          best_fit = fit;
          winner = id;
        }
      }
      out.assignment[rid] = winner;
    }
  }
  out.wall_s = SecondsSince(start);
  return out;
}

/// Times Maroon::Link per target with a fresh model; when `reference` is
/// given, checks each result against the recomposed one.
size_t TimeLinkPass(const RunContext& ctx,
                    const std::map<EntityId, MatchResult>* reference,
                    Samples* link_s) {
  const maroon::Dataset& dataset = ctx.corpus->dataset;
  auto transition = ctx.models->TrainTransition();
  auto maroon = ctx.models->MakeMaroon(transition.get());
  size_t mismatches = 0;
  for (const EntityId& id : ctx.corpus->targets) {
    auto target = dataset.target(id);
    if (!target.ok()) continue;
    const std::vector<const TemporalRecord*> candidates =
        Candidates(dataset, id);
    maroon::LinkResult link;
    {
      SpanScope span("matching.link_entity");
      link = maroon->Link((*target)->clean_profile, candidates);
      link_s->Add(span.Stop());
    }
    if (reference == nullptr) continue;
    auto it = reference->find(id);
    MatchResult expected = it == reference->end() ? MatchResult() : it->second;
    if (Corrupt(ctx, "recomposition") && id == ctx.corpus->targets.front()) {
      expected.iterations += 1;
    }
    if (!SameMatch(link.match, expected)) ++mismatches;
  }
  return mismatches;
}

void TracedBatchLayers(const RunContext& ctx, const Samples& round_s,
                       const Assignment& width2_assignment) {
  Report& report = *ctx.report;
  const maroon::Dataset& dataset = ctx.corpus->dataset;
  const size_t n = ctx.corpus->targets.size();

  // Recomposed passes (R) and LinkAll at width 1 (L) in the order R L L R,
  // each on a fresh model. The layer sums over both R passes are compared
  // with both L passes, so a host that speeds up or slows down steadily over
  // the four passes biases neither side.
  const auto recompose = [&] {
    auto transition = ctx.models->TrainTransition();
    return RecomposeLinkAll(ctx, transition.get());
  };
  double link_all_s = 0.0;
  const auto link_all_width1 = [&] {
    auto model = ctx.models->TrainTransition();
    auto maroon = ctx.models->MakeMaroon(model.get());
    BatchLinkOptions options;
    options.threads = 1;
    const BatchLinker linker(maroon.get(), options);
    SpanScope span("matching.link_all");
    BatchLinkResult result = linker.LinkAll(dataset, ctx.corpus->targets);
    link_all_s += span.Stop() / 2;
    return result;
  };
  Recomposed recomposed = recompose();
  const BatchLinkResult first_width1 = link_all_width1();
  BatchLinkResult width1 = link_all_width1();
  const Recomposed second = recompose();
  if (Corrupt(ctx, "width") && !width1.assignment.empty()) {
    width1.assignment.erase(width1.assignment.begin());
  }
  if (Corrupt(ctx, "link_all") && !recomposed.assignment.empty()) {
    recomposed.assignment.erase(recomposed.assignment.begin());
  }
  report.Gate("width2_equals_width1",
              width1.assignment == width2_assignment &&
                  first_width1.assignment == width2_assignment,
              "LinkAll assignment at width 1 vs width 2");
  report.Gate("recomposition_equals_link_all",
              recomposed.assignment == width1.assignment &&
                  second.assignment == width1.assignment &&
                  recomposed.contested == width1.contested_records,
              "recomposed assignment vs LinkAll at width 1");

  // Maroon::Link per target, checked against the recomposition, then more
  // passes until p99 has ten samples beyond it (bounded).
  Samples link_s;
  const size_t mismatches =
      TimeLinkPass(ctx, &recomposed.per_entity, &link_s);
  report.Gate("recomposition_equals_link", mismatches == 0,
              std::to_string(mismatches) + " of " + std::to_string(n) +
                  " entities differ");
  for (int pass = 0;
       pass < 4 && link_s.size() < 1000 && Clock::now() < ctx.deadline;
       ++pass) {
    TimeLinkPass(ctx, nullptr, &link_s);
  }

  // Per pass: span totals over the two recomposed passes, halved.
  std::map<std::string, double> span_s = SpanSeconds();
  const double candidates_s = span_s["core.candidates"] / 2;
  const double phase1_s = span_s["matching.phase1"] / 2;
  const double phase2_s = span_s["matching.phase2"] / 2;
  const double resolve_s = span_s["matching.resolve"] / 2;
  report.Metric("core.candidates_s", candidates_s, "s");
  report.Metric("core.candidates_per_entity",
                static_cast<double>(recomposed.candidates) /
                    static_cast<double>(std::max<size_t>(n, 1)),
                "count");
  report.Metric("matching.phase1_s", phase1_s, "s");
  report.Metric("matching.phase1_clusters",
                static_cast<double>(recomposed.clusters), "count");
  report.Metric("matching.phase2_s", phase2_s, "s");
  report.Metric("matching.phase2_link_ratio",
                static_cast<double>(recomposed.linked_clusters) /
                    static_cast<double>(std::max<size_t>(recomposed.clusters,
                                                         1)),
                "ratio");
  report.Metric("matching.resolve_s", resolve_s, "s");
  report.Metric("matching.contested_records",
                static_cast<double>(recomposed.contested), "count");
  report.Metric("matching.link_all_s", link_all_s, "s");
  // Under the "accounted" corruption Phase I is left out of the sum.
  const double accounted =
      (candidates_s + (Corrupt(ctx, "accounted") ? 0.0 : phase1_s) +
       phase2_s + resolve_s) /
      link_all_s;
  report.Metric("trace.accounted_ratio", accounted, "ratio");
  if (BatchIsMain(ctx)) {
    report.Gate("layers_account_for_link_all",
                std::abs(accounted - 1.0) <=
                    ctx.workload->accounted_tolerance,
                "accounted_ratio=" + std::to_string(accounted) +
                    " tolerance=" +
                    std::to_string(ctx.workload->accounted_tolerance));
  }
  report.Metric("matching.link_entity_p50_ms", 1e3 * link_s.Median(), "ms");
  report.Metric("matching.link_entity_p99_ms", 1e3 * link_s.Quantile(0.99),
                "ms");
  report.Metric("matching.link_entity_samples",
                static_cast<double>(link_s.size()), "count");
  report.Describe("matching.link_entity", link_s, 1e3, "ms");
  // The first Link pass covers every target exactly once.
  double one_pass_link_s = 0.0;
  for (size_t i = 0; i < std::min(n, link_s.size()); ++i) {
    one_pass_link_s += link_s.values()[i];
  }
  report.Metric("common.pool_efficiency",
                one_pass_link_s / (kPoolWidth * round_s.Median()), "ratio");
  if (BatchIsMain(ctx)) {
    report.Metric("trace.overhead_ratio",
                  (recomposed.wall_s + second.wall_s) / (2 * link_all_s),
                  "ratio");
  }
}

}  // namespace

BatchPath::BatchPath(const RunContext& ctx) : ctx_(ctx) {
  // Warm-up, untimed: LinkAll over a few targets on the same pool until a
  // second has passed. A freshly started process on a shared VM runs its
  // first second or so of pool work up to twice as slowly.
  const std::vector<EntityId>& targets = ctx.corpus->targets;
  const std::vector<EntityId> few(
      targets.begin(),
      targets.begin() + std::min<size_t>(kWarmUpTargets, targets.size()));
  BatchLinkOptions options;
  options.threads = kPoolWidth;
  const auto maroon = ctx.models->MakeMaroon(ctx.models->transition.get());
  const BatchLinker linker(maroon.get(), options);
  const auto warm_start = Clock::now();
  do {
    const BatchLinkResult warm = linker.LinkAll(ctx.corpus->dataset, few);
    (void)warm;
  } while (SecondsSince(warm_start) < kWarmUpSeconds);
}

void BatchPath::Round() {
  const RunContext& ctx = ctx_;
  Report& report = *ctx.report;
  maroon::obs::MetricsRegistry& registry =
      maroon::obs::MetricsRegistry::Global();
  maroon::obs::Counter* hits =
      registry.GetCounter("maroon.transition.cache_hits");
  maroon::obs::Counter* misses =
      registry.GetCounter("maroon.transition.cache_misses");
  const int64_t hits_before = hits->value();
  const int64_t misses_before = misses->value();

  const bool first_round = round_s_.empty();
  RoundResult r = LinkAllRound(ctx, kPoolWidth);
  round_s_.Add(r.link_s);
  cache_hits_ += hits->value() - hits_before;
  cache_misses_ += misses->value() - misses_before;

  report.Attempt(ctx.corpus->targets.size());
  report.Fail(r.result.skipped_entities);
  Assignment& assignment = r.result.assignment;
  if (first_round) {
    Assignment scored = assignment;
    if (Corrupt(ctx, "link_f1") && !scored.empty()) {
      // Every record to one entity.
      const EntityId one = scored.begin()->second;
      for (auto& [record, entity] : scored) entity = one;
    }
    const double f1 = AssignmentF1(ctx.corpus->dataset, scored);
    report.Metric("link_f1", f1, "ratio");
    report.Gate("link_f1_floor", f1 >= ctx.workload->link_f1_floor,
                "f1=" + std::to_string(f1) + " floor=" +
                    std::to_string(ctx.workload->link_f1_floor));
    first_ = std::move(assignment);
    return;
  }
  if (Corrupt(ctx, "round") && round_s_.size() == 2 && !assignment.empty()) {
    assignment.erase(assignment.begin());
  }
  report.Gate("round_assignment", assignment == first_,
              "LinkAll assignment vs round 0");
}

void BatchPath::Finish() {
  const RunContext& ctx = ctx_;
  Report& report = *ctx.report;
  const size_t n = ctx.corpus->targets.size();
  // Per median round: the first round after a streaming step starts with
  // the caches that step evicted, and on a corpus that links in a fraction
  // of a second those rounds ran up to a third slower than the rest.
  report.Metric("link_entities_per_s",
                static_cast<double>(n) / round_s_.Median(), "1/s");
  report.Describe("batch.link_all_round", round_s_, 1.0, "s");
  report.Info("batch rounds=" + std::to_string(round_s_.size()) +
              " targets=" + std::to_string(n) + " pool_width=" +
              std::to_string(kPoolWidth));

  if (!ctx.traced) return;
  report.Metric("transition.cache_hit_ratio",
                static_cast<double>(cache_hits_) /
                    static_cast<double>(std::max<int64_t>(
                        cache_hits_ + cache_misses_, 1)),
                "ratio");
  if (BatchIsMain(ctx)) {
    // One extra round with the metrics registry off: on/off wall ratio.
    maroon::obs::MetricsRegistry::SetEnabled(false);
    const RoundResult off = LinkAllRound(ctx, kPoolWidth);
    maroon::obs::MetricsRegistry::SetEnabled(true);
    report.Metric("obs.metrics_overhead_ratio", round_s_.Median() / off.link_s,
                  "ratio");
  }
  TracedBatchLayers(ctx, round_s_, first_);
}

}  // namespace perfbench
