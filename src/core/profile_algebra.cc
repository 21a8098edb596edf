#include "core/profile_algebra.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace maroon {

std::vector<ProfileFact> EnumerateProfileFacts(const EntityProfile& profile) {
  std::vector<ProfileFact> facts;
  for (const auto& [attribute, seq] : profile.sequences()) {
    for (const Triple& tr : seq.triples()) {
      for (TimePoint t = tr.interval.begin; t <= tr.interval.end; ++t) {
        for (const Value& v : tr.values) {
          facts.push_back(ProfileFact{attribute, t, v});
        }
      }
    }
  }
  std::sort(facts.begin(), facts.end());
  facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
  return facts;
}

ProfileDiff DiffProfiles(const EntityProfile& before,
                         const EntityProfile& after) {
  const std::vector<ProfileFact> before_facts = EnumerateProfileFacts(before);
  const std::vector<ProfileFact> after_facts = EnumerateProfileFacts(after);
  ProfileDiff diff;
  std::set_difference(after_facts.begin(), after_facts.end(),
                      before_facts.begin(), before_facts.end(),
                      std::back_inserter(diff.added));
  std::set_difference(before_facts.begin(), before_facts.end(),
                      after_facts.begin(), after_facts.end(),
                      std::back_inserter(diff.removed));
  return diff;
}

std::string RenderTimeline(const EntityProfile& profile, size_t max_width) {
  const auto earliest = profile.EarliestTime();
  const auto latest = profile.LatestTime();
  if (!earliest || !latest) return "(empty profile)\n";

  const int64_t span = static_cast<int64_t>(*latest) - *earliest + 1;
  // One column per `step` instants so wide histories still fit.
  int64_t step = 1;
  while (span / step > static_cast<int64_t>(max_width)) ++step;

  size_t label_width = 0;
  for (const auto& [attribute, seq] : profile.sequences()) {
    label_width = std::max(label_width, attribute.size());
  }

  std::ostringstream os;
  os << (profile.name().empty() ? profile.id() : profile.name());
  os << " (" << *earliest << "-" << *latest << ")\n";
  for (const auto& [attribute, seq] : profile.sequences()) {
    os << attribute;
    os << std::string(label_width - attribute.size() + 2, ' ') << "|";
    ValueSet previous;
    std::string pending;
    for (TimePoint t = *earliest; t <= *latest;
         t = static_cast<TimePoint>(t + step)) {
      const ValueSet values = seq.ValuesAt(t);
      char cell = ' ';
      if (!values.empty()) {
        if (values == previous) {
          cell = '.';
        } else {
          // New state: emit the first letters of the joined values, spread
          // over subsequent continuation columns via `pending`.
          pending = values[0];
          for (size_t i = 1; i < values.size(); ++i) pending += "+" + values[i];
          cell = '\0';  // marker: take from pending
        }
      } else {
        pending.clear();
      }
      if (cell == '\0') {
        os << pending[0];
        pending.erase(0, 1);
      } else if (cell == '.' && !pending.empty()) {
        os << pending[0];
        pending.erase(0, 1);
      } else {
        os << cell;
      }
      previous = values;
    }
    os << "|\n";
  }
  return os.str();
}

}  // namespace maroon
