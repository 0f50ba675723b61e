// Deterministic, seedable pseudo-random generation.
//
// All randomized components of cyclestream (samplers, generators, estimator
// copies) draw from `Rng`, a thin wrapper over xoshiro256**, seeded via
// SplitMix64. Every experiment in the repository is reproducible from a
// single 64-bit seed. <random> engines are deliberately avoided for the hot
// paths: their distributions are implementation-defined, which would make
// test expectations non-portable.

#ifndef CYCLESTREAM_UTIL_RANDOM_H_
#define CYCLESTREAM_UTIL_RANDOM_H_

#include <cstdint>

namespace cyclestream {

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
/// Used for seeding and as a cheap stateless mixer.
std::uint64_t SplitMix64(std::uint64_t* state);

/// xoshiro256** generator with utilities for the ranges this library needs.
class Rng {
 public:
  /// Seeds the four words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0);

  /// Next raw 64-bit output.
  std::uint64_t Next64();

  /// Uniform integer in [0, bound). `bound` must be positive. Uses Lemire's
  /// unbiased multiply-shift rejection method.
  std::uint64_t NextBounded(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform double strictly inside (0, 1), with 52 bits of precision: the
  /// midpoint of one of 2^52 equal cells, so its log is finite and below 0.
  double NextOpenDouble();

  /// Bernoulli draw with success probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Forks an independent generator; deterministic given this Rng's state.
  Rng Fork();

  /// Copies the four state words out (for checkpointing; see src/snapshot/).
  void GetState(std::uint64_t out[4]) const {
    for (int i = 0; i < 4; ++i) out[i] = s_[i];
  }

  /// Overwrites the state words; the generator resumes exactly where the
  /// saved generator stood. All-zero state is invalid for xoshiro256** and
  /// rejected by CHECK (it cannot be produced by GetState of a seeded Rng).
  void SetState(const std::uint64_t in[4]);

  /// Fisher-Yates shuffle of `data[0..n)`.
  template <typename T>
  void Shuffle(T* data, std::size_t n) {
    for (std::size_t i = n; i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBounded(i));
      T tmp = data[i - 1];
      data[i - 1] = data[j];
      data[j] = tmp;
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_UTIL_RANDOM_H_
