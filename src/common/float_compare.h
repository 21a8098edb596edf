#ifndef MAROON_COMMON_FLOAT_COMPARE_H_
#define MAROON_COMMON_FLOAT_COMPARE_H_

#include <cmath>

namespace maroon {

/// Epsilon helpers for probability and score arithmetic.
///
/// Floating-point `==`/`!=` is banned in MAROON code (lint rule R003):
/// transition and freshness probabilities are products of many conditionals,
/// so exact comparison is both meaningless and a classic source of silent
/// linkage-quality bugs. Use these helpers instead.

/// Default tolerance for probability/score comparisons. Probabilities live in
/// [0, 1]; 1e-9 is far below any meaningful difference yet far above the
/// accumulated rounding error of the paper's Eq. 1-7 chains.
inline constexpr double kDefaultEpsilon = 1e-9;

/// True when `a` and `b` are within `eps` of each other.
inline bool ApproxEqual(double a, double b, double eps = kDefaultEpsilon) {
  return std::fabs(a - b) <= eps;
}

/// True when `x` is within `eps` of zero (e.g. a vector norm too small to
/// divide by).
inline bool ApproxZero(double x, double eps = kDefaultEpsilon) {
  return std::fabs(x) <= eps;
}

}  // namespace maroon

#endif  // MAROON_COMMON_FLOAT_COMPARE_H_
