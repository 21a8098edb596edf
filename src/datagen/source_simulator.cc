#include "datagen/source_simulator.h"

#include <algorithm>

#include "datagen/career_model.h"

namespace maroon {

namespace {

/// Introduces one typo: transpose two adjacent letters or drop a letter.
std::string IntroduceTypo(const std::string& name, Random& rng) {
  if (name.size() < 3) return name;
  const size_t pos =
      static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(name.size()) - 2));
  std::string out = name;
  if (rng.Bernoulli(0.5)) {
    std::swap(out[pos], out[pos + 1]);
  } else {
    out.erase(pos, 1);
  }
  return out;
}

}  // namespace

size_t SourceSimulator::EmitRecords(const EntityProfile& ground_truth,
                                    Dataset& dataset, Random& rng) const {
  const auto earliest = ground_truth.EarliestTime();
  const auto latest = ground_truth.LatestTime();
  if (!earliest || !latest) return 0;

  size_t emitted = 0;
  const TimePoint from = std::max(*earliest, config_.active_from);
  for (TimePoint t = from; t <= *latest; ++t) {
    if (!rng.Bernoulli(config_.publication_rate)) continue;

    std::string mention = ground_truth.name();
    if (config_.name_typo_rate > 0.0 &&
        rng.Bernoulli(config_.name_typo_rate)) {
      mention = IntroduceTypo(mention, rng);
    }
    TemporalRecord record(/*id=*/0, std::move(mention), t, source_id_);
    bool has_value = false;
    for (const auto& [attribute, seq] : ground_truth.sequences()) {
      auto coverage_it = config_.coverage.find(attribute);
      const double coverage =
          coverage_it != config_.coverage.end() ? coverage_it->second : 1.0;
      if (!rng.Bernoulli(coverage)) continue;

      auto fresh_it = config_.fresh_probability.find(attribute);
      const double fresh_p =
          fresh_it != config_.fresh_probability.end() ? fresh_it->second : 1.0;
      int64_t delay = 0;
      if (!rng.Bernoulli(fresh_p)) {
        auto decay_it = config_.stale_decay.find(attribute);
        const double decay =
            decay_it != config_.stale_decay.end() ? decay_it->second : 0.5;
        delay = 1 + rng.Geometric(decay);
      }
      // The published value is the entity's true value `delay` years ago,
      // clamped to the start of the observed history.
      const TimePoint observed_at = std::max<TimePoint>(
          *earliest, static_cast<TimePoint>(t - delay));
      ValueSet values = seq.ValuesAt(observed_at);
      if (values.empty()) continue;
      // Publication noise: occasionally replace the value with a wrong one
      // from the error pool (never one the entity actually held).
      auto error_it = config_.error_rate.find(attribute);
      if (error_it != config_.error_rate.end() &&
          rng.Bernoulli(error_it->second)) {
        auto pool_it = config_.error_pool.find(attribute);
        if (pool_it != config_.error_pool.end() && !pool_it->second.empty()) {
          const std::vector<Value>& pool = pool_it->second;
          for (int attempt = 0; attempt < 8; ++attempt) {
            const Value& wrong = pool[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(pool.size()) - 1))];
            if (seq.IntervalsOf(wrong).empty()) {
              values = MakeValueSet({wrong});
              break;
            }
          }
        }
      }
      record.SetValue(attribute, std::move(values));
      has_value = true;
    }
    if (!has_value) continue;
    const RecordId id = dataset.AddRecord(std::move(record));
    (void)dataset.SetLabel(id, ground_truth.id());
    ++emitted;
  }
  return emitted;
}

std::vector<SourceConfig> DefaultRecruitmentSources() {
  std::vector<SourceConfig> sources(3);

  SourceConfig& careerhub = sources[0];
  careerhub.name = "CareerHub";
  careerhub.publication_rate = 0.50;
  careerhub.coverage = {{kAttrOrganization, 0.95},
                        {kAttrTitle, 0.95},
                        {kAttrLocation, 0.75}};
  careerhub.fresh_probability = {{kAttrOrganization, 1.0},
                                 {kAttrTitle, 1.0},
                                 {kAttrLocation, 1.0}};
  careerhub.stale_decay = {{kAttrOrganization, 0.6},
                           {kAttrTitle, 0.6},
                           {kAttrLocation, 0.6}};

  SourceConfig& orbitplus = sources[1];
  orbitplus.name = "OrbitPlus";
  orbitplus.publication_rate = 0.22;
  orbitplus.coverage = {{kAttrOrganization, 0.80},
                        {kAttrTitle, 0.85},
                        {kAttrLocation, 0.60}};
  // Configured staleness is stronger than the target *measured* freshness
  // (paper Table 6: ~0.86): a value published with delay d often still holds
  // at publication time, so the Eq. 9 delay comes out 0 for roughly half of
  // the stale publications.
  orbitplus.fresh_probability = {{kAttrOrganization, 0.62},
                                 {kAttrTitle, 0.55},
                                 {kAttrLocation, 0.80}};
  orbitplus.stale_decay = {{kAttrOrganization, 0.25},
                           {kAttrTitle, 0.22},
                           {kAttrLocation, 0.35}};

  SourceConfig& chirper = sources[2];
  chirper.name = "Chirper";
  chirper.publication_rate = 0.18;
  chirper.active_from = 2006;
  chirper.coverage = {{kAttrOrganization, 0.55},
                      {kAttrTitle, 0.65},
                      {kAttrLocation, 0.80}};
  chirper.fresh_probability = {{kAttrOrganization, 0.68},
                               {kAttrTitle, 0.62},
                               {kAttrLocation, 0.90}};
  chirper.stale_decay = {{kAttrOrganization, 0.28},
                         {kAttrTitle, 0.25},
                         {kAttrLocation, 0.45}};
  return sources;
}

}  // namespace maroon
