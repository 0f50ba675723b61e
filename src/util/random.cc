#include "util/random.h"

#include "util/check.h"

namespace cyclestream {

namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
}

std::uint64_t Rng::Next64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  CYCLESTREAM_CHECK_GT(bound, 0u);
  // Lemire's method: multiply-shift with rejection in the biased region.
  std::uint64_t x = Next64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = Next64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
}

double Rng::NextOpenDouble() {
  // A 52-bit integer plus one half is exact in a double's 53 bits.
  return (static_cast<double>(Next64() >> 12) + 0.5) * 0x1.0p-52;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

void Rng::SetState(const std::uint64_t in[4]) {
  CYCLESTREAM_CHECK(in[0] != 0 || in[1] != 0 || in[2] != 0 || in[3] != 0);
  for (int i = 0; i < 4; ++i) s_[i] = in[i];
}

Rng Rng::Fork() {
  Rng child(0);
  for (auto& word : child.s_) word = Next64();
  return child;
}

}  // namespace cyclestream
