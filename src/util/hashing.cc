#include "util/hashing.h"

#include "util/random.h"

namespace cyclestream {

SeededHash::SeededHash(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed ^ 0xa5a5a5a55a5a5a5aULL;
  odd_multiplier_ = SplitMix64(&sm) | 1ULL;
}

}  // namespace cyclestream
