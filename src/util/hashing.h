// Seeded 64-bit hashing for sampling priorities.
//
// The paper's algorithms (Sections 3-4) require "hash-based sampling": each
// stream item must map to a fixed priority the moment it first appears, so a
// bottom-k sample can admit items at first sight and the final sample is a
// uniform fixed-size subset. `SeededHash` provides an indexed family of such
// hashes; each index behaves as an independent function. The mixers are
// Murmur3/SplitMix-style finalizers, which pass standard avalanche tests and
// are more than sufficient for the Chebyshev-based analyses in the paper
// (which need only pairwise near-independence in practice).

#ifndef CYCLESTREAM_UTIL_HASHING_H_
#define CYCLESTREAM_UTIL_HASHING_H_

#include <cstdint>

namespace cyclestream {

/// Murmur3 finalizer: a fast bijective mixer on 64-bit words. Inline:
/// hash-table probes, shard routing and pair keys call it per element.
inline std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Mixes two words into one (non-commutative). Multiplicative combination
/// followed by a full mix; distinct pairs map to distinct pre-mix values
/// with overwhelming probability.
inline std::uint64_t Mix128To64(std::uint64_t a, std::uint64_t b) {
  return Mix64(a * 0x9e3779b97f4a7c15ULL + Mix64(b) + 0x165667b19e3779f9ULL);
}

/// A seeded family of 64-bit hash functions.
class SeededHash {
 public:
  /// Constructs the family member identified by `seed`.
  explicit SeededHash(std::uint64_t seed);

  /// Hash of a single 64-bit key.
  std::uint64_t Hash(std::uint64_t key) const {
    return Mix64((key + seed_) * odd_multiplier_);
  }

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::uint64_t odd_multiplier_;
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_UTIL_HASHING_H_
