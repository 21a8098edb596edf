#ifndef MAROON_TRANSITION_TRANSITION_CACHE_H_
#define MAROON_TRANSITION_TRANSITION_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "common/hash.h"

namespace maroon {

/// 128-bit fingerprint of one mapped value set: two independently seeded
/// FNV-1a hashes over the sequence of (value, frequent) elements. Element
/// order matters — callers fingerprint sets in their canonical (already
/// sorted) order, so equal sets always produce equal fingerprints.
struct SetFingerprint {
  uint64_t a = 0;
  uint64_t b = 0;
};

/// Accumulates a SetFingerprint one element at a time:
///
///   SetFingerprintBuilder fp;
///   for (const MappedValue& mv : mapped) fp.Add(mv.value, mv.frequent);
///   cache->Lookup(table->cache_salt(), fp.fingerprint(), to_fp, &p);
class SetFingerprintBuilder {
 public:
  void Add(std::string_view value, bool frequent);

  SetFingerprint fingerprint() const { return {a_.hash(), b_.hash()}; }

 private:
  // The second stream is re-seeded so the two 64-bit halves do not collide
  // together.
  Fnv1a a_;
  Fnv1a b_{kFnv1aOffsetBasis ^ 0x5851f42d4c957f2dull};
};

/// A fixed-capacity, insert-only, lock-free memo table mapping
/// (table cache_salt, from fingerprint, to fingerprint) -> probability.
///
/// Eq. 13's interval probability evaluates the same Eq. 12 set probability
/// for every Δt that resolves (via Eq. 2 clamping) to the same transition
/// table, and Eq. 14 repeats whole interval computations across candidate
/// records; this cache collapses those repeats. Keys are order-dependent
/// ((from, to) and (to, from) are distinct entries, as Eq. 12 requires) and
/// carry the table's process-unique cache_salt, so entries can never alias
/// across tables or across re-finalized generations of one table.
///
/// Concurrency: slots hold two atomic key words and an atomic value word.
/// Writers claim a slot by CAS on the first key word, then publish the
/// second key and the value with release stores; readers probe with acquire
/// loads and treat half-written slots as misses (acquire/release ordering is
/// load-bearing here — see docs/threading-model.md for the inventory of
/// lock-free structures and their ordering contracts). Duplicate inserts of the
/// same key are benign — the computed value is deterministic. Entries that
/// do not find a free slot within the probe window are silently dropped
/// (the cache is an accelerator, never a source of truth).
///
/// Correctness caveat: hits are exact modulo a 128-bit fingerprint
/// collision between two *different* value sets queried against the same
/// table — negligible for any realistic workload, and the trade is
/// documented in TransitionModelOptions::cache_probabilities.
class TransitionProbabilityCache {
 public:
  /// Capacity is 2^capacity_log2 slots (24 bytes each); the default 2^16
  /// (~1.5 MiB) is far above the distinct-key population of the paper's
  /// corpora.
  explicit TransitionProbabilityCache(int capacity_log2 = 16);

  TransitionProbabilityCache(const TransitionProbabilityCache&) = delete;
  TransitionProbabilityCache& operator=(const TransitionProbabilityCache&) =
      delete;

  /// True and sets *value on a hit; false on a miss.
  bool Lookup(uint64_t salt, const SetFingerprint& from,
              const SetFingerprint& to, double* value) const;

  /// Publishes (salt, from, to) -> value; drops silently when the probe
  /// window is exhausted.
  void Put(uint64_t salt, const SetFingerprint& from,
           const SetFingerprint& to, double value);

  /// Occupied slots (approximate under concurrent inserts); for tests.
  size_t SizeForTest() const;

 private:
  struct Slot {
    std::atomic<uint64_t> k1{0};
    std::atomic<uint64_t> k2{0};
    std::atomic<uint64_t> value_bits{kEmptyValueBits};
  };

  /// Linear-probe window; beyond it the insert is dropped.
  static constexpr size_t kMaxProbe = 8;
  /// All-ones is a NaN payload no probability computation produces, so it
  /// can mark "value not yet published".
  static constexpr uint64_t kEmptyValueBits = ~0ull;

  std::unique_ptr<Slot[]> slots_;
  size_t mask_;
};

}  // namespace maroon

#endif  // MAROON_TRANSITION_TRANSITION_CACHE_H_
