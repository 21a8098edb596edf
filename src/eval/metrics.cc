#include "eval/metrics.h"

#include <algorithm>
#include <set>
#include <tuple>

namespace maroon {

PrecisionRecall ComputePrecisionRecall(std::vector<RecordId> result,
                                       std::vector<RecordId> match) {
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  std::sort(match.begin(), match.end());
  match.erase(std::unique(match.begin(), match.end()), match.end());

  PrecisionRecall pr;
  pr.result_size = result.size();
  pr.match_size = match.size();
  std::vector<RecordId> shared;
  std::set_intersection(result.begin(), result.end(), match.begin(),
                        match.end(), std::back_inserter(shared));
  pr.true_positives = shared.size();
  pr.precision = result.empty()
                     ? 1.0
                     : static_cast<double>(pr.true_positives) /
                           static_cast<double>(result.size());
  pr.recall = match.empty() ? 1.0
                            : static_cast<double>(pr.true_positives) /
                                  static_cast<double>(match.size());
  return pr;
}

namespace {

using Fact = std::tuple<Attribute, TimePoint, Value>;

std::set<Fact> EnumerateFacts(const EntityProfile& profile,
                              const std::vector<Attribute>& attributes) {
  std::set<Fact> facts;
  for (const Attribute& attribute : attributes) {
    const TemporalSequence& seq = profile.sequence(attribute);
    for (const Triple& tr : seq.triples()) {
      for (TimePoint t = tr.interval.begin; t <= tr.interval.end; ++t) {
        for (const Value& v : tr.values) {
          facts.emplace(attribute, t, v);
        }
      }
    }
  }
  return facts;
}

}  // namespace

ProfileQuality CompareProfiles(const EntityProfile& result,
                               const EntityProfile& ground_truth,
                               const std::vector<Attribute>& attributes) {
  const std::set<Fact> result_facts = EnumerateFacts(result, attributes);
  const std::set<Fact> truth_facts = EnumerateFacts(ground_truth, attributes);

  ProfileQuality quality;
  quality.result_facts = result_facts.size();
  quality.truth_facts = truth_facts.size();
  for (const Fact& f : result_facts) {
    if (truth_facts.count(f) > 0) ++quality.shared_facts;
  }
  quality.accuracy = result_facts.empty()
                         ? 0.0
                         : static_cast<double>(quality.shared_facts) /
                               static_cast<double>(result_facts.size());
  quality.completeness = truth_facts.empty()
                             ? 0.0
                             : static_cast<double>(quality.shared_facts) /
                                   static_cast<double>(truth_facts.size());
  return quality;
}

}  // namespace maroon
