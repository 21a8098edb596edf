#ifndef MAROON_TRANSITION_TRANSITION_TABLE_H_
#define MAROON_TRANSITION_TRANSITION_TABLE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/value.h"

namespace maroon {

/// Dense id of a value in a ValueDictionary.
using ValueId = uint32_t;

/// The id of a value outside the dictionary.
inline constexpr ValueId kNoValueId = std::numeric_limits<ValueId>::max();

/// One attribute's trained vocabulary: each distinct (mapped) value gets a
/// dense id, assigned in ascending value order, so ordering by id is ordering
/// by value. All of the attribute's Δt tables share one dictionary. It is
/// immutable once built, so concurrent readers need no synchronization.
class ValueDictionary {
 public:
  /// `sorted_values` must be ascending with no duplicates.
  explicit ValueDictionary(std::vector<Value> sorted_values);

  ValueDictionary(const ValueDictionary&) = delete;
  ValueDictionary& operator=(const ValueDictionary&) = delete;

  /// The id of `value`, or kNoValueId if it is not in the vocabulary.
  ValueId Find(std::string_view value) const;

  const Value& value(ValueId id) const { return values_[id]; }
  size_t size() const { return values_.size(); }

 private:
  std::vector<Value> values_;
  /// Keys view the strings in `values_`, which never move after
  /// construction (the class is neither copyable nor movable).
  std::unordered_map<std::string_view, ValueId> ids_;
};

/// The transition table T^A_Δt for one attribute and one Δt: a count per
/// observed (v, v') pair, where (v, v') is a Δt-transition (paper Def. 2 and
/// Algorithm 1), together with the aggregates the probability equations
/// need (Eq. 1 and the smoothing cases 1-4).
///
/// The counts are stored as flat arrays over the ids of a ValueDictionary:
/// one row per origin id, each row a span of (destination id, count) sorted
/// by destination, plus per-id row sums, row-minimum probabilities and
/// column sums. The id-keyed accessors are what Eq. 1-8 run on; the
/// Value-keyed ones resolve through the dictionary.
class TransitionTable {
 public:
  /// (from, to) packed as from << 32 | to, so packed keys order like the
  /// (from, to) pairs they encode.
  using PackedPair = uint64_t;
  static PackedPair Pack(ValueId from, ValueId to) {
    return (static_cast<PackedPair>(from) << 32) | to;
  }

  /// An empty table; Add() and Finalize() build a standalone one.
  TransitionTable() = default;

  /// A finalized table over `dictionary` holding `counts`; duplicate pairs
  /// are summed. Every id must be below dictionary->size() and every count
  /// positive.
  TransitionTable(std::shared_ptr<const ValueDictionary> dictionary,
                  std::vector<std::pair<PackedPair, int64_t>> counts);

  /// Stages `count` occurrences of the transition (from -> to) for a
  /// standalone table; Finalize() folds them in.
  void Add(const Value& from, const Value& to, int64_t count);

  /// Folds staged Add() calls into the table over a fresh dictionary of its
  /// values. Must be called after the last Add and before any probability
  /// query.
  void Finalize();

  /// T_Δt[(from, to)]; 0 if unseen.
  int64_t Count(ValueId from, ValueId to) const;
  int64_t Count(const Value& from, const Value& to) const {
    return Count(Find(from), Find(to));
  }

  /// Σ_x T[(from, x)] — denominator of Eq. 1.
  int64_t RowSum(ValueId from) const {
    return from < row_sums_.size() ? row_sums_[from] : 0;
  }
  int64_t RowSum(const Value& from) const { return RowSum(Find(from)); }

  /// Σ_v T[(v, to)] — numerator of Eq. 5.
  int64_t ColumnSum(ValueId to) const {
    return to < column_sums_.size() ? column_sums_[to] : 0;
  }
  int64_t ColumnSum(const Value& to) const { return ColumnSum(Find(to)); }

  /// Σ over all entries.
  int64_t Total() const { return total_; }

  /// Σ_v T[(v, v)] — numerator of Eq. 6 (recurrences).
  int64_t SelfTotal() const { return self_total_; }

  /// Σ_{v != v'} T[(v, v')] — denominator of Eq. 8.
  int64_t DiffTotal() const { return total_ - self_total_; }

  /// True iff `v` occurs as a first component (v ∈ V in the paper).
  bool HasOrigin(ValueId v) const { return RowSum(v) > 0; }
  bool HasOrigin(const Value& v) const { return HasOrigin(Find(v)); }

  /// True iff `v` occurs as a second component (v ∈ V').
  bool HasDestination(ValueId v) const { return ColumnSum(v) > 0; }
  bool HasDestination(const Value& v) const { return HasDestination(Find(v)); }

  /// Eq. 1: T[(from, to)] / RowSum(from); 0 if the row is empty.
  double ConditionalProbability(ValueId from, ValueId to) const;
  double ConditionalProbability(const Value& from, const Value& to) const {
    return ConditionalProbability(Find(from), Find(to));
  }

  /// min over observed destinations x of ConditionalProbability(from, x)
  /// — the "minimum transition probability w.r.t. the value u" used by the
  /// smoothing cases 1 and 2 (Eq. 3-4). 0 if `from` has no row.
  double MinRowProbability(ValueId from) const {
    return from < min_row_probability_.size() ? min_row_probability_[from]
                                              : 0.0;
  }
  double MinRowProbability(const Value& from) const {
    return MinRowProbability(Find(from));
  }

  /// Eq. 5: ColumnSum(to) / Total; 0 if the table is empty.
  double PriorProbability(ValueId to) const;
  double PriorProbability(const Value& to) const {
    return PriorProbability(Find(to));
  }

  /// Eq. 6: SelfTotal / Total; 0 if the table is empty.
  double RecurrenceProbability() const;

  /// Eq. 7-8: E(X) / DiffTotal with E(X) = Σ_{v != v'} Pr(v,v') T[(v,v')];
  /// 0 if no differing transition was observed.
  double ExpectedChangeProbability() const { return case4_diff_probability_; }

  /// Number of distinct (v, v') entries.
  size_t NumEntries() const { return destinations_.size(); }
  bool empty() const { return destinations_.empty(); }

  /// All entries as (from, to, count), ordered by value; for inspection and
  /// tests.
  std::vector<std::tuple<Value, Value, int64_t>> Entries() const;

 private:
  ValueId Find(const Value& value) const {
    return dictionary_ != nullptr ? dictionary_->Find(value) : kNoValueId;
  }

  /// Rebuilds every array and aggregate from `counts`.
  void Build(std::vector<std::pair<PackedPair, int64_t>> counts);

  std::shared_ptr<const ValueDictionary> dictionary_;
  /// Row `from` is [row_begin_[from], row_begin_[from + 1]) of
  /// destinations_/counts_, sorted by destination; size dictionary + 1.
  std::vector<uint32_t> row_begin_;
  std::vector<ValueId> destinations_;
  std::vector<int64_t> counts_;
  /// Indexed by id; size dictionary (empty before the first build).
  std::vector<int64_t> row_sums_;
  std::vector<double> min_row_probability_;
  std::vector<int64_t> column_sums_;
  int64_t total_ = 0;
  int64_t self_total_ = 0;
  double case4_diff_probability_ = 0.0;
  /// Add() calls not yet folded in by Finalize().
  std::vector<std::tuple<Value, Value, int64_t>> staged_;
};

}  // namespace maroon

#endif  // MAROON_TRANSITION_TRANSITION_TABLE_H_
