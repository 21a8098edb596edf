#include "transition/transition_cache.h"

#include <bit>

namespace maroon {

namespace {

/// Order-dependent combine (boost-style golden-ratio mix), so swapping the
/// from/to fingerprints changes the key.
uint64_t Mix(uint64_t h, uint64_t x) {
  return h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

}  // namespace

void SetFingerprintBuilder::Add(std::string_view value, bool frequent) {
  // One pass feeds both streams so their multiply chains overlap.
  for (char c : value) {
    a_.Byte(static_cast<uint8_t>(c));
    b_.Byte(static_cast<uint8_t>(c));
  }
  // Element separator + the frequent flag; the separator keeps ("ab", "c")
  // and ("a", "bc") distinct.
  a_.Byte(0xff);
  a_.Byte(frequent ? 1 : 0);
  b_.Byte(0xfe);
  b_.Byte(frequent ? 1 : 0);
}

TransitionProbabilityCache::TransitionProbabilityCache(int capacity_log2) {
  const size_t capacity = size_t{1} << capacity_log2;
  slots_ = std::make_unique<Slot[]>(capacity);
  mask_ = capacity - 1;
}

namespace {

void MakeKeys(uint64_t salt, const SetFingerprint& from,
              const SetFingerprint& to, uint64_t* k1, uint64_t* k2) {
  *k1 = Mix(Mix(salt, from.a), to.a);
  *k2 = Mix(Mix(salt ^ 0x94d049bb133111ebull, from.b), to.b);
  // 0 marks an unclaimed slot, so keys must be nonzero.
  if (*k1 == 0) *k1 = 1;
  if (*k2 == 0) *k2 = 1;
}

}  // namespace

bool TransitionProbabilityCache::Lookup(uint64_t salt,
                                        const SetFingerprint& from,
                                        const SetFingerprint& to,
                                        double* value) const {
  uint64_t k1 = 0, k2 = 0;
  MakeKeys(salt, from, to, &k1, &k2);
  for (size_t probe = 0; probe < kMaxProbe; ++probe) {
    const Slot& slot = slots_[(k1 + probe) & mask_];
    const uint64_t seen_k1 = slot.k1.load(std::memory_order_acquire);
    if (seen_k1 == 0) return false;  // end of the occupied run
    if (seen_k1 != k1) continue;
    if (slot.k2.load(std::memory_order_acquire) != k2) continue;
    const uint64_t bits = slot.value_bits.load(std::memory_order_acquire);
    if (bits == kEmptyValueBits) return false;  // writer mid-publish
    *value = std::bit_cast<double>(bits);
    return true;
  }
  return false;
}

void TransitionProbabilityCache::Put(uint64_t salt,
                                     const SetFingerprint& from,
                                     const SetFingerprint& to,
                                     double value) {
  uint64_t k1 = 0, k2 = 0;
  MakeKeys(salt, from, to, &k1, &k2);
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  for (size_t probe = 0; probe < kMaxProbe; ++probe) {
    Slot& slot = slots_[(k1 + probe) & mask_];
    uint64_t expected = 0;
    if (slot.k1.compare_exchange_strong(expected, k1,
                                        std::memory_order_acq_rel)) {
      slot.k2.store(k2, std::memory_order_release);
      slot.value_bits.store(bits, std::memory_order_release);
      return;
    }
    if (expected == k1 &&
        slot.k2.load(std::memory_order_acquire) == k2) {
      // Already present (or a concurrent writer publishing the same
      // deterministic value); nothing to do.
      return;
    }
  }
  // Probe window exhausted: drop the entry.
}

size_t TransitionProbabilityCache::SizeForTest() const {
  size_t occupied = 0;
  for (size_t i = 0; i <= mask_; ++i) {
    if (slots_[i].k1.load(std::memory_order_acquire) != 0) ++occupied;
  }
  return occupied;
}

}  // namespace maroon
