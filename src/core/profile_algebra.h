#ifndef MAROON_CORE_PROFILE_ALGEBRA_H_
#define MAROON_CORE_PROFILE_ALGEBRA_H_

#include <string>
#include <vector>

#include "core/entity_profile.h"
#include "core/time_types.h"
#include "core/value.h"

namespace maroon {

/// Utilities over entity profiles: fact-level diffing and a
/// human-readable timeline rendering. Used by the CLI, the examples, and
/// evaluation tooling.

/// One (attribute, instant, value) fact of a profile.
struct ProfileFact {
  Attribute attribute;
  TimePoint time = 0;
  Value value;

  friend bool operator==(const ProfileFact& a, const ProfileFact& b) {
    return a.attribute == b.attribute && a.time == b.time &&
           a.value == b.value;
  }
  friend bool operator<(const ProfileFact& a, const ProfileFact& b) {
    if (a.attribute != b.attribute) return a.attribute < b.attribute;
    if (a.time != b.time) return a.time < b.time;
    return a.value < b.value;
  }
};

/// All facts of `profile`, sorted.
std::vector<ProfileFact> EnumerateProfileFacts(const EntityProfile& profile);

/// Fact-level difference between two profiles.
struct ProfileDiff {
  /// Facts present in `after` but not `before`.
  std::vector<ProfileFact> added;
  /// Facts present in `before` but not `after`.
  std::vector<ProfileFact> removed;

  bool empty() const { return added.empty() && removed.empty(); }
};

ProfileDiff DiffProfiles(const EntityProfile& before,
                         const EntityProfile& after);

/// Renders an ASCII timeline of the profile, one row per attribute:
///
///   Title         2000 |Engineer....Manager......Director.|
///
/// Each column is one instant between the profile's earliest and latest
/// time; a state is printed at its first instant and '.' marks
/// continuation, ' ' marks gaps. Intended for terminal inspection.
std::string RenderTimeline(const EntityProfile& profile,
                           size_t max_width = 100);

}  // namespace maroon

#endif  // MAROON_CORE_PROFILE_ALGEBRA_H_
