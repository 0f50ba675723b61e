// Fuzz-style snapshot corruption: a seeded mutator damages checkpoint
// envelopes with K byte/bit mutations at uniform offsets (plus truncations
// and extensions), and every mutated envelope — for every estimator with a
// Serialize/Restore contract — must come back from a resumed
// RunPassesChecked as a typed Status. Never a resumed run, never a crash.
// Every mutated envelope fails the length, magic, version or CRC check in
// SnapshotReader::Open, so this fuzzes the envelope gate, not the payload
// decoders behind it; those are reached by tests that reseal an edited
// payload under a valid CRC (chaos_recovery_test, service_test).
//
// The mutator is fully deterministic from kFuzzSeed, so any failure
// reproduces by rerunning the test; the offending case's estimator, base
// boundary, and mutation count are in the failure message.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/driver.h"
#include "test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {
namespace {

using testing_util::SnapshotEstimator;
using testing_util::SnapshotEstimators;

constexpr std::uint64_t kFuzzSeed = 0xF0220DD5;
// Mutated envelopes per estimator; the acceptance floor is 1000.
constexpr int kCasesPerEstimator = 1200;
// Mutations per case: 1..kMaxMutations, drawn uniformly.
constexpr std::uint64_t kMaxMutations = 8;

// Applies one random mutation. Mostly in-place byte damage; occasionally
// structural (truncate, or append junk so the trailing-CRC window moves).
void MutateOnce(Rng& rng, std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) {
    bytes.push_back(static_cast<std::uint8_t>(rng.Next64()));
    return;
  }
  const std::uint64_t roll = rng.NextBounded(10);
  if (roll == 0) {
    bytes.resize(rng.NextBounded(bytes.size()) + 1);  // truncate, keep >= 1
  } else if (roll == 1) {
    bytes.push_back(static_cast<std::uint8_t>(rng.Next64()));
  } else if (roll < 6) {
    const std::size_t at = static_cast<std::size_t>(rng.NextBounded(bytes.size()));
    bytes[at] ^= static_cast<std::uint8_t>(1u << rng.NextBounded(8));
  } else {
    const std::size_t at = static_cast<std::size_t>(rng.NextBounded(bytes.size()));
    bytes[at] = static_cast<std::uint8_t>(rng.Next64());
  }
}

bool IsTypedSnapshotError(StatusCode code) {
  return code == StatusCode::kDataLoss ||
         code == StatusCode::kInvalidArgument ||
         code == StatusCode::kFailedPrecondition ||
         code == StatusCode::kOutOfRange || code == StatusCode::kInternal;
}

TEST(SnapshotFuzz, EveryMutatedEnvelopeIsATypedErrorForEveryEstimator) {
  Graph g = gen::ErdosRenyiGnp(12, 0.4, 7);
  AdjacencyListStream stream(&g, 7);
  Rng rng(kFuzzSeed);

  for (const SnapshotEstimator& est : SnapshotEstimators(kFuzzSeed)) {
    SCOPED_TRACE(est.name);
    // Envelopes from every list boundary of a checkpointed run — headers,
    // report payloads, and estimator payloads at many sizes.
    std::vector<std::vector<std::uint8_t>> snapshots;
    std::unique_ptr<StreamAlgorithm> algo = est.make();
    auto collect = [&snapshots](int, std::size_t,
                                std::vector<std::uint8_t> bytes) {
      snapshots.push_back(std::move(bytes));
    };
    ASSERT_TRUE(
        RunPassesChecked(stream, algo.get(), {.on_checkpoint = collect}).ok());
    ASSERT_FALSE(snapshots.empty());

    int mutated_cases = 0;
    int attempts = 0;
    while (mutated_cases < kCasesPerEstimator) {
      // A no-op mutation chain (mutations cancelling out) is skipped, not
      // counted; the attempt bound keeps a pathological RNG from looping.
      ASSERT_LT(attempts++, kCasesPerEstimator * 4);
      const std::size_t base =
          static_cast<std::size_t>(rng.NextBounded(snapshots.size()));
      std::vector<std::uint8_t> bytes = snapshots[base];
      const std::uint64_t mutations = 1 + rng.NextBounded(kMaxMutations);
      for (std::uint64_t m = 0; m < mutations; ++m) MutateOnce(rng, bytes);
      if (bytes == snapshots[base]) continue;
      ++mutated_cases;

      std::unique_ptr<StreamAlgorithm> victim = est.make();
      StatusOr<RunReport> result =
          RunPassesChecked(stream, victim.get(), {.resume_from = bytes});
      ASSERT_FALSE(result.ok())
          << "mutated envelope resumed: boundary " << base << ", "
          << mutations << " mutations, case " << mutated_cases;
      EXPECT_TRUE(IsTypedSnapshotError(result.status().code()))
          << "untyped error " << result.status().ToString() << ": boundary "
          << base << ", " << mutations << " mutations, case "
          << mutated_cases;
    }
    EXPECT_GE(mutated_cases, 1000);
  }
}

TEST(SnapshotFuzz, EmptyAndTinyBuffersAreTypedErrors) {
  Graph g = gen::ErdosRenyiGnp(8, 0.5, 3);
  AdjacencyListStream stream(&g, 3);
  for (const SnapshotEstimator& est : SnapshotEstimators(3)) {
    SCOPED_TRACE(est.name);
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                            std::size_t{23}}) {
      std::vector<std::uint8_t> bytes(len, 0xAB);
      std::unique_ptr<StreamAlgorithm> victim = est.make();
      StatusOr<RunReport> result =
          RunPassesChecked(stream, victim.get(), {.resume_from = bytes});
      ASSERT_FALSE(result.ok()) << "length " << len;
      EXPECT_TRUE(IsTypedSnapshotError(result.status().code()))
          << result.status().ToString();
    }
  }
}

}  // namespace
}  // namespace stream
}  // namespace cyclestream
