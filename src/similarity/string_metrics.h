#ifndef MAROON_SIMILARITY_STRING_METRICS_H_
#define MAROON_SIMILARITY_STRING_METRICS_H_

#include <cstddef>
#include <string_view>

namespace maroon {

/// Jaro similarity in [0, 1]; 1 for identical strings, 0 for no matching
/// characters. Empty-vs-empty is 1, empty-vs-nonempty is 0.
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity (Cohen et al. 2003, the metric the paper uses for
/// pairs of values): boosts Jaro by a common-prefix bonus.
///
/// `prefix_weight` is Winkler's p (default 0.1, at most 0.25);
/// `max_prefix` caps the rewarded prefix length (default 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b,
                             double prefix_weight = 0.1,
                             size_t max_prefix = 4);

}  // namespace maroon

#endif  // MAROON_SIMILARITY_STRING_METRICS_H_
