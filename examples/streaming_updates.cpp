// Streaming profile maintenance — the paper's §1 vision in motion: records
// arrive year by year, and the target's profile grows increasingly complete
// and up-to-date as each step re-links every record gathered so far.
//
// Build & run:  cmake --build build && ./build/examples/streaming_updates

#include <algorithm>
#include <iostream>
#include <vector>

#include "common/string_util.h"
#include "core/profile_algebra.h"
#include "datagen/recruitment_generator.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "matching/maroon.h"

using namespace maroon;  // NOLINT — example brevity

int main() {
  RecruitmentOptions data_options;
  data_options.seed = 123;
  data_options.num_entities = 60;
  data_options.num_names = 24;
  const Dataset dataset = GenerateRecruitmentDataset(data_options);

  ExperimentOptions exp_options;
  Experiment experiment(&dataset, exp_options);
  experiment.Prepare();

  MaroonOptions options;
  options.matcher.single_valued_attributes = dataset.attributes();
  Maroon maroon(&experiment.transition_model(), &experiment.freshness_model(),
                &experiment.similarity(), dataset.attributes(), options);

  // Pick a held-out target and stream its candidate records by year.
  const EntityId entity = experiment.test_entities().front();
  const auto target = dataset.target(entity);
  std::vector<const TemporalRecord*> candidates;
  for (RecordId rid : dataset.CandidatesFor(entity)) {
    candidates.push_back(&dataset.record(rid));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const TemporalRecord* a, const TemporalRecord* b) {
              return a->timestamp() < b->timestamp();
            });

  std::cout << "Target " << entity << " (\""
            << (*target)->clean_profile.name() << "\"), "
            << candidates.size() << " candidate records\n\n";
  std::cout << "year   observed  linked  completeness\n";

  // Each step links the whole pool from the original clean profile, so the
  // trusted history stays authoritative and conclusions drawn from fewer
  // records are revisited as more evidence arrives.
  std::vector<const TemporalRecord*> pool;
  LinkResult latest;
  size_t next = 0;
  for (TimePoint year = candidates.front()->timestamp();
       year <= candidates.back()->timestamp(); year += 5) {
    while (next < candidates.size() &&
           candidates[next]->timestamp() < year + 5) {
      pool.push_back(candidates[next]);
      ++next;
    }
    latest = maroon.Link((*target)->clean_profile, pool);
    const ProfileQuality quality =
        CompareProfiles(latest.match.augmented_profile, (*target)->ground_truth,
                        dataset.attributes());
    std::cout << year << "   " << pool.size() << "        "
              << latest.match.matched_records.size() << "      "
              << FormatDouble(quality.completeness, 3) << "\n";
  }

  std::cout << "\nFinal timeline:\n"
            << RenderTimeline(latest.match.augmented_profile);
  const auto pr = ComputePrecisionRecall(latest.match.matched_records,
                                         dataset.TrueMatchesOf(entity));
  std::cout << "\nFinal P=" << FormatDouble(pr.precision, 3)
            << " R=" << FormatDouble(pr.recall, 3) << "\n";
  return 0;
}
