#ifndef MAROON_COMMON_HASH_H_
#define MAROON_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace maroon {

/// The standard 64-bit FNV-1a offset basis.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;

/// Streaming 64-bit FNV-1a. Multi-byte integers are fed little-endian.
/// `Str` length-prefixes its input so ("ab", "c") and ("a", "bc") cannot
/// collide structurally; `Bytes` feeds raw bytes for callers that delimit
/// elements themselves.
class Fnv1a {
 public:
  explicit Fnv1a(uint64_t seed = kFnv1aOffsetBasis) : hash_(seed) {}

  void Byte(uint8_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) Byte((v >> (8 * i)) & 0xFF);
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte((v >> (8 * i)) & 0xFF);
  }
  void Bytes(std::string_view s) {
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s);
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_;
};

}  // namespace maroon

#endif  // MAROON_COMMON_HASH_H_
