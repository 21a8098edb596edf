#ifndef MAROON_CORE_TEMPORAL_SEQUENCE_H_
#define MAROON_CORE_TEMPORAL_SEQUENCE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/time_types.h"
#include "core/value.h"

namespace maroon {

/// One element of a temporal sequence: the set of values `values` is known to
/// be valid for every instant in `interval` (the paper's <b, e, V>).
struct Triple {
  Interval interval;
  ValueSet values;

  Triple() = default;
  Triple(Interval iv, ValueSet v) : interval(iv), values(std::move(v)) {}
  Triple(TimePoint b, TimePoint e, ValueSet v)
      : interval(b, e), values(std::move(v)) {}

  std::string ToString() const;

  friend bool operator==(const Triple& a, const Triple& b) {
    return a.interval == b.interval && a.values == b.values;
  }
};

/// The evolution of one attribute of one entity over time (paper Def. 1).
///
/// A *canonical* sequence satisfies Def. 1: triples are ordered with
/// `e_i < b_{i+1}` (disjoint, gaps allowed) and *adjacent* triples (no gap
/// between them) carry different value sets — the same value set may recur
/// after a gap, which is exactly the recurrence temporal models reason
/// about. During profile augmentation (Algorithm 3) freshly linked cluster
/// states may overlap existing triples, so the container also supports a
/// relaxed mode: `Insert` keeps triples sorted by interval but tolerates
/// overlaps, and `Normalize()` restores canonical form by unioning values at
/// each instant and re-compressing runs — the paper's post-processing step.
class TemporalSequence {
 public:
  TemporalSequence() = default;

  /// Builds a sequence from triples, requiring canonical form.
  static Result<TemporalSequence> FromTriples(std::vector<Triple> triples);

  /// Appends `triple` at the end; fails unless it starts strictly after the
  /// last triple ends. An adjacent (gap-free) triple repeating the previous
  /// value set is rejected per Def. 1; recurrence after a gap is allowed.
  Status Append(Triple triple);

  /// Inserts `triple` keeping triples sorted by interval; overlaps with
  /// existing triples are allowed (call Normalize() to resolve them).
  Status Insert(Triple triple);

  /// Restores canonical form: values valid at the same instant are unioned,
  /// and maximal runs of instants with identical value sets become triples.
  void Normalize();

  /// True iff the sequence satisfies Def. 1.
  bool IsCanonical() const;

  /// Values(Seq, t): the set of values valid at instant `t` (union over all
  /// triples containing `t`); empty if `t` is uncovered.
  ValueSet ValuesAt(TimePoint t) const;

  /// Intervals(Seq, v): all intervals during which `v` occurs.
  std::vector<Interval> IntervalsOf(const Value& v) const;

  /// Lifespan(Seq) = e_last - b_first + 1; 0 for the empty sequence.
  int64_t Lifespan() const;

  /// The maximum instant t' <= `t` with `v` in Values(t'), i.e., the paper's
  /// t_max in Eq. 9 when `t` itself is excluded via `strictly_before`.
  std::optional<TimePoint> LatestOccurrenceBefore(const Value& v, TimePoint t,
                                                  bool strictly_before) const;

  /// True iff the union of the triple intervals covers every instant of
  /// `window` (the paper's completeness w.r.t. [b, e]).
  bool IsCompleteOver(const Interval& window) const;

  /// Fraction of instants in `window` covered by some triple, in [0, 1].
  double CoverageFraction(const Interval& window) const;

  /// First instant covered, if any.
  std::optional<TimePoint> EarliestTime() const;
  /// Last instant covered, if any.
  std::optional<TimePoint> LatestTime() const;

  bool empty() const { return triples_.empty(); }
  size_t size() const { return triples_.size(); }
  const Triple& at(size_t i) const { return triples_.at(i); }
  const std::vector<Triple>& triples() const { return triples_; }

  std::string ToString() const;

  friend bool operator==(const TemporalSequence& a, const TemporalSequence& b) {
    return a.triples_ == b.triples_;
  }

 private:
  std::vector<Triple> triples_;  // sorted by (interval.begin, interval.end)
};

}  // namespace maroon

#endif  // MAROON_CORE_TEMPORAL_SEQUENCE_H_
