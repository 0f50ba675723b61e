// Chaos matrix for the random-order estimator riding the same crash-recovery
// machinery as the adjacency estimators: crash at every u-run boundary of a
// RandomOrderStream (uniform and ε-perturbed), resume from the snapshot, and
// demand bit-identical results; feed the resume path corrupted and
// mismatched snapshots and demand typed errors, never a wrong answer.
//
// The estimator restores its prefix index by replaying insertions, so the
// resumed instance's container geometry — and hence any later snapshot —
// matches the uninterrupted run byte for byte.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/random_order_triangle.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "snapshot/snapshot.h"
#include "stream/driver.h"
#include "stream/random_order_stream.h"
#include "test_util.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {
namespace {

using testing_util::Digest;
using testing_util::ExpectReportsEqual;

std::string ResultDigest(const core::RandomOrderTriangleCounter& c) {
  core::RandomOrderTriangleResult r = c.result();
  return Digest(r.estimate, r.edge_count, r.detections, r.prefix_edges,
                r.scale);
}

// Crash-at-every-boundary matrix for one (options, stream) combination.
void CrashEverywhere(const core::RandomOrderTriangleOptions& options,
                     const RandomOrderStream& stream) {
  core::RandomOrderTriangleCounter reference(options);
  StatusOr<RunReport> ref = RunPassesChecked(stream, &reference);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::string ref_digest = ResultDigest(reference);

  std::vector<std::vector<std::uint8_t>> snapshots;
  core::RandomOrderTriangleCounter checkpointed(options);
  auto collect = [&snapshots](int, std::size_t,
                              std::vector<std::uint8_t> bytes) {
    snapshots.push_back(std::move(bytes));
  };
  StatusOr<RunReport> full =
      RunPassesChecked(stream, &checkpointed, {.on_checkpoint = collect});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  // Checkpointing itself never perturbs the run.
  ExpectReportsEqual(*full, *ref);
  EXPECT_EQ(ResultDigest(checkpointed), ref_digest);
  ASSERT_FALSE(snapshots.empty());

  for (std::size_t k = 0; k < snapshots.size(); ++k) {
    core::RandomOrderTriangleCounter resumed(options);
    StatusOr<RunReport> result =
        RunPassesChecked(stream, &resumed, {.resume_from = snapshots[k]});
    ASSERT_TRUE(result.ok())
        << "boundary " << k << ": " << result.status().ToString();
    ExpectReportsEqual(*result, *ref);
    EXPECT_EQ(ResultDigest(resumed), ref_digest) << "boundary " << k;
  }
}

TEST(RandomOrderChaos, KillAndRestoreAtEveryRunBoundaryIsBitIdentical) {
  for (std::uint64_t seed : {1u, 7u}) {
    for (double epsilon : {0.0, 0.2}) {
      Graph g = gen::ErdosRenyiGnp(14, 0.35, seed);
      RandomOrderStream stream(&g, seed, epsilon);
      for (std::size_t prefix : {1u, 5u, 1000u}) {
        core::RandomOrderTriangleOptions options;
        options.prefix_size = prefix;
        options.seed = seed;
        SCOPED_TRACE("seed " + std::to_string(seed) + " eps " +
                     std::to_string(epsilon) + " prefix " +
                     std::to_string(prefix));
        CrashEverywhere(options, stream);
      }
    }
  }
}

TEST(RandomOrderChaos, DoubleResumeFromOneSnapshotIsDeterministic) {
  Graph g = gen::BarabasiAlbert(12, 2, 3);
  RandomOrderStream stream(&g, 3);
  core::RandomOrderTriangleOptions options;
  options.prefix_size = 6;

  std::vector<std::vector<std::uint8_t>> snapshots;
  core::RandomOrderTriangleCounter algo(options);
  auto collect = [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
    snapshots.push_back(std::move(bytes));
  };
  ASSERT_TRUE(RunPassesChecked(stream, &algo, {.on_checkpoint = collect}).ok());
  ASSERT_FALSE(snapshots.empty());
  const std::vector<std::uint8_t> mid = snapshots[snapshots.size() / 2];

  core::RandomOrderTriangleCounter first(options);
  core::RandomOrderTriangleCounter second(options);
  ASSERT_TRUE(RunPassesChecked(stream, &first, {.resume_from = mid}).ok());
  EXPECT_EQ(mid, snapshots[snapshots.size() / 2]);  // bytes untouched
  ASSERT_TRUE(RunPassesChecked(stream, &second, {.resume_from = mid}).ok());
  EXPECT_EQ(ResultDigest(first), ResultDigest(second));
}

class RandomOrderSnapshotFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = gen::ErdosRenyiGnp(10, 0.5, 4);
    stream_ = std::make_unique<RandomOrderStream>(&graph_, 4);
    options_.prefix_size = 5;
    options_.seed = 13;
    core::RandomOrderTriangleCounter algo(options_);
    auto keep_last = [this](int, std::size_t,
                            std::vector<std::uint8_t> bytes) {
      snapshot_ = std::move(bytes);
    };
    ASSERT_TRUE(
        RunPassesChecked(*stream_, &algo, {.on_checkpoint = keep_last}).ok());
    ASSERT_FALSE(snapshot_.empty());
  }

  StatusCode ResumeCode(const std::vector<std::uint8_t>& bytes) {
    core::RandomOrderTriangleCounter algo(options_);
    StatusOr<RunReport> result =
        RunPassesChecked(*stream_, &algo, {.resume_from = bytes});
    EXPECT_FALSE(result.ok());
    return result.status().code();
  }

  Graph graph_;
  std::unique_ptr<RandomOrderStream> stream_;
  core::RandomOrderTriangleOptions options_;
  std::vector<std::uint8_t> snapshot_;
};

TEST_F(RandomOrderSnapshotFuzz, TruncationIsDataLoss) {
  std::vector<std::uint8_t> cut(snapshot_.begin(), snapshot_.end() - 9);
  EXPECT_EQ(ResumeCode(cut), StatusCode::kDataLoss);
  cut.assign(snapshot_.begin(), snapshot_.begin() + 10);
  EXPECT_EQ(ResumeCode(cut), StatusCode::kDataLoss);
}

TEST_F(RandomOrderSnapshotFuzz, BitFlipsNeverResume) {
  for (std::size_t i = 0; i < snapshot_.size(); i += 7) {
    std::vector<std::uint8_t> flipped = snapshot_;
    flipped[i] ^= 0x20;
    core::RandomOrderTriangleCounter algo(options_);
    StatusOr<RunReport> result =
        RunPassesChecked(*stream_, &algo, {.resume_from = flipped});
    EXPECT_FALSE(result.ok()) << "byte " << i;
  }
}

TEST_F(RandomOrderSnapshotFuzz, PrefixSizeMismatchIsFailedPrecondition) {
  core::RandomOrderTriangleOptions other = options_;
  other.prefix_size += 1;
  core::RandomOrderTriangleCounter algo(other);
  StatusOr<RunReport> result =
      RunPassesChecked(*stream_, &algo, {.resume_from = snapshot_});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RandomOrderSnapshotFuzz, WrongPermutationSeedIsFailedPrecondition) {
  // The snapshot pins the stream's model descriptor (including the
  // permutation seed): resuming over a different permutation is rejected
  // before any estimator state is trusted.
  RandomOrderStream other_stream(&graph_, 5);
  core::RandomOrderTriangleCounter algo(options_);
  StatusOr<RunReport> result =
      RunPassesChecked(other_stream, &algo, {.resume_from = snapshot_});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RandomOrderSnapshotFuzz, WrongGraphIsFailedPrecondition) {
  Graph other = gen::ErdosRenyiGnp(11, 0.5, 4);
  RandomOrderStream other_stream(&other, 4);
  core::RandomOrderTriangleCounter algo(options_);
  StatusOr<RunReport> result =
      RunPassesChecked(other_stream, &algo, {.resume_from = snapshot_});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace stream
}  // namespace cyclestream
