#ifndef MAROON_TRANSITION_TRANSITION_MODEL_H_
#define MAROON_TRANSITION_TRANSITION_MODEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/entity_profile.h"
#include "core/temporal_sequence.h"
#include "core/time_types.h"
#include "core/value.h"
#include "transition/transition_table.h"
#include "transition/value_mapper.h"

namespace maroon {

/// Options controlling transition-model training and querying.
struct TransitionModelOptions {
  /// Values occurring on fewer than this many time instants in the training
  /// profiles are treated as unseen at query time, falling back to the
  /// general recurrence/change probabilities (paper §4.1.2 Discussion).
  int64_t min_value_frequency = 1;

  /// Eq. 13's literal double sum skips t = t' pairs. When true, those pairs
  /// contribute Pr(..., Δt=0) = 1 (Eq. 2) to the interval average instead.
  bool include_zero_delta_terms = false;

  /// Caps unseen-transition probabilities (smoothing cases 1, 2 and the
  /// case-4 change branch) at 1/(support + 1), where support is the origin
  /// row mass (cases 1-2) or the table's differing-transition mass (case 4).
  ///
  /// The literal Eq. 3-8 assign the row-minimum / expected-change
  /// probability, which degenerates to ~1.0 on sparse tables (a row with a
  /// single observed destination has minimum 1.0), making *unseen*
  /// transitions look certain on high-cardinality attributes such as
  /// organizations. The cap keeps "unseen transitions are rare" true while
  /// leaving dense-table behaviour close to the paper's. Disable for the
  /// literal formulas.
  bool cap_unseen_by_support = true;

  /// Optional value generalization applied before counting and querying;
  /// nullptr = identity.
  std::shared_ptr<const ValueMapper> mapper;
};

/// The paper's core contribution (§4.1): for each attribute A, a family of
/// transition tables T^A_Δt learnt from clean entity profiles, answering
///
///   Pr(v, v', Δt, A) — the probability that attribute A is v' given that it
///   was v at Δt time earlier (Eq. 1), with Δt clamping per Eq. 2 and the
///   four unseen-transition smoothing cases (Eq. 3-8).
///
/// Training uses the closed-form interval-pair counting of Lemma 1 /
/// Proposition 1 (Algorithm 1) rather than literally sliding a window.
class TransitionModel {
 public:
  TransitionModel() = default;

  /// Learns transition tables for each of `attributes` from `profiles`.
  /// Profiles are expected to be clean and canonical; non-canonical
  /// sequences are still consumed (each triple pair is processed by
  /// Proposition 1, which only requires b <= b').
  static TransitionModel Train(const ProfileSet& profiles,
                               const std::vector<Attribute>& attributes,
                               TransitionModelOptions options = {});

  /// Pr(v, v', Δt, A) per Eq. 1-8 with clamping per Eq. 2:
  /// Δt == 0 -> 1.0; Δt >= L -> probability at L-1. Returns 0 when the model
  /// has no data at all for the attribute. `delta` must be >= 0.
  double Probability(const Attribute& attribute, const Value& v,
                     const Value& v_next, int64_t delta) const;

  /// Eq. 12: mean over v' in `to` of the best transition from `from`.
  double SetProbability(const Attribute& attribute, const ValueSet& from,
                        const ValueSet& to, int64_t delta) const;

  /// Eq. 13: average transition probability over all ordered instant pairs
  /// drawn from `from_interval` x `to_interval` (closed form over deltas).
  double IntervalProbability(const Attribute& attribute, const ValueSet& from,
                             const ValueSet& to, const Interval& from_interval,
                             const Interval& to_interval) const;

  /// Eq. 14: transitPr — mean over the triples of `sequence` of the interval
  /// probability from that triple to the state (`to`, `to_interval`).
  /// Returns 0 for an empty sequence.
  double SequenceToStateProbability(const Attribute& attribute,
                                    const TemporalSequence& sequence,
                                    const ValueSet& to,
                                    const Interval& to_interval) const;

  /// The maximum lifespan L over the training sequences of `attribute`
  /// (0 if untrained).
  int64_t MaxLifespan(const Attribute& attribute) const;

  bool HasAttribute(const Attribute& attribute) const {
    return attributes_.count(attribute) > 0;
  }

  /// The table for (attribute, Δt), or nullptr if none was built.
  const TransitionTable* table(const Attribute& attribute,
                               int64_t delta) const;

  /// The Δt values with a table for `attribute`, ascending.
  std::vector<int64_t> DeltasFor(const Attribute& attribute) const;

  /// Instants-weighted frequency of (mapped) `value` in the training data.
  int64_t ValueFrequency(const Attribute& attribute, const Value& value) const;

  /// Serializes the learnt state (tables, value frequencies, lifespans, and
  /// scalar options) to a versioned CSV text. The value mapper is NOT
  /// serialized — tables already hold post-mapping values; pass the same
  /// mapper in `options` when deserializing so queries keep mapping inputs.
  std::string Serialize() const;

  /// Reconstructs a model from Serialize() output. Scalar options embedded
  /// in the text are restored; `options.mapper` (if any) is re-attached.
  static Result<TransitionModel> Deserialize(const std::string& text,
                                             TransitionModelOptions options = {});

  const TransitionModelOptions& options() const { return options_; }

 private:
  struct AttributeModel {
    /// The attribute's mapped values; every table below is keyed by its ids.
    std::shared_ptr<const ValueDictionary> dictionary;
    /// Instants-weighted training frequency per id; empty for a value that
    /// only a deserialized `entry` row names.
    std::vector<std::optional<int64_t>> value_frequency;
    std::map<int64_t, TransitionTable> tables;
    int64_t max_lifespan = 0;
  };

  /// A value resolved against the attribute's dictionary, with its
  /// low-frequency flag precomputed — the hot loops of Eq. 12-14 resolve
  /// each value once.
  struct MappedValue {
    ValueId id = kNoValueId;
    bool frequent = false;
    /// The mapped value when it is outside the vocabulary (id ==
    /// kNoValueId): Eq. 6 tells such values apart by it.
    Value unknown;
  };

  /// Per-call counts of the smoothing cases, published to the metrics
  /// registry once per query.
  struct LookupTally;

  /// Maps a whole set for `attribute` under `am` (parallel to the input;
  /// no dedup, preserving Eq. 12's |V'| semantics).
  std::vector<MappedValue> MapSet(const AttributeModel& am,
                                  const Attribute& attribute,
                                  const ValueSet& values) const;

  /// Eq. 1-8 given the already-resolved table and mapped values.
  double PairProbability(const TransitionTable& table, const MappedValue& from,
                         const MappedValue& to, LookupTally* tally) const;

  /// Eq. 12 given resolved state.
  double SetProbabilityImpl(const TransitionTable* table,
                            const std::vector<MappedValue>& from,
                            const std::vector<MappedValue>& to,
                            LookupTally* tally) const;

  /// Clamps Δt per Eq. 2 and picks the nearest available table at or below
  /// it (or the smallest table above, if none below exists).
  const TransitionTable* ResolveTable(const AttributeModel& model,
                                      int64_t delta) const;

  std::map<Attribute, AttributeModel> attributes_;
  TransitionModelOptions options_;
};

}  // namespace maroon

#endif  // MAROON_TRANSITION_TRANSITION_MODEL_H_
