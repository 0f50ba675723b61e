// Crash-recovery chaos harness: every estimator, crashed at every
// adjacency-list boundary and resumed from its last checkpoint, must finish
// with a RunReport and estimate bit-identical to an uninterrupted run; and
// every class of snapshot corruption must come back as a typed Status, never
// a wrong answer.
//
// Strategy: one checkpointed run per (estimator, graph, seed) collects the
// snapshot at every boundary (also proving checkpointing itself never
// perturbs the run); then each snapshot is treated as "the last one written
// before the crash" — a fresh instance resumes from it and the final state
// is compared field-by-field against the uninterrupted reference.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact_stream.h"
#include "core/four_cycle.h"
#include "core/one_pass_four_cycle.h"
#include "core/one_pass_triangle.h"
#include "core/random_order_triangle.h"
#include "core/triangle_distinguisher.h"
#include "core/two_pass_triangle.h"
#include "core/wedge_sampling_triangle.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/driver.h"
#include "stream/fault_injection.h"
#include "stream/random_order_stream.h"
#include "test_util.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {
namespace {

using testing_util::ExpectReportsEqual;
using testing_util::GeneratorFamilies;
using testing_util::GraphFamily;
using testing_util::SnapshotEstimator;
using testing_util::SnapshotEstimators;

// When CYCLESTREAM_CHAOS_DUMP_DIR is set (the CI chaos job points it at an
// artifact directory), the snapshot blob behind the first failing boundary
// is written there so the exact offending bytes ride along with the log.
void MaybeDumpSnapshot(const std::string& tag,
                       const std::vector<std::uint8_t>& bytes) {
  const char* dir = std::getenv("CYCLESTREAM_CHAOS_DUMP_DIR");
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + tag + ".snap";
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ADD_FAILURE() << "failing snapshot blob dumped to " << path;
}

// Runs the full crash matrix for one (estimator, stream) combination.
void CrashAtEveryBoundary(const SnapshotEstimator& est,
                          const AdjacencyListStream& stream,
                          const std::string& tag) {
  // HasFailure() is cumulative per TEST; only dump blobs for the first
  // combination that newly fails.
  const bool failed_on_entry = ::testing::Test::HasFailure();
  // Uninterrupted reference.
  std::unique_ptr<StreamAlgorithm> ref_algo = est.make();
  StatusOr<RunReport> ref = RunPassesChecked(stream, ref_algo.get());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::string ref_digest = est.digest(ref_algo.get());

  // One checkpointed run collects the snapshot at every list boundary.
  std::vector<std::vector<std::uint8_t>> snapshots;
  std::unique_ptr<StreamAlgorithm> chk_algo = est.make();
  auto collect = [&snapshots](int, std::size_t,
                              std::vector<std::uint8_t> bytes) {
    snapshots.push_back(std::move(bytes));
  };
  StatusOr<RunReport> full =
      RunPassesChecked(stream, chk_algo.get(), {.on_checkpoint = collect});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  // Checkpointing itself must not perturb the run.
  ExpectReportsEqual(*full, *ref);
  EXPECT_EQ(est.digest(chk_algo.get()), ref_digest);
  const std::size_t lists_per_pass = stream.graph().num_vertices();
  ASSERT_EQ(snapshots.size(),
            lists_per_pass * static_cast<std::size_t>(ref->passes_requested));

  // Crash after every boundary; resume a fresh instance from that snapshot.
  for (std::size_t k = 0; k < snapshots.size(); ++k) {
    std::unique_ptr<StreamAlgorithm> algo = est.make();
    StatusOr<RunReport> resumed =
        RunPassesChecked(stream, algo.get(), {.resume_from = snapshots[k]});
    EXPECT_TRUE(resumed.ok())
        << "boundary " << k << ": " << resumed.status().ToString();
    if (resumed.ok()) {
      ExpectReportsEqual(*resumed, *ref);
      EXPECT_EQ(est.digest(algo.get()), ref_digest) << "boundary " << k;
    }
    if (!failed_on_entry && ::testing::Test::HasFailure()) {
      MaybeDumpSnapshot(tag + "-boundary" + std::to_string(k), snapshots[k]);
      return;
    }
  }
}

TEST(ChaosRecovery, CrashAtEveryBoundaryRestoresBitIdentically) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (const GraphFamily& family : GeneratorFamilies()) {
      Graph g = family.make(seed);
      AdjacencyListStream stream(&g, seed);
      for (const SnapshotEstimator& est : SnapshotEstimators(seed)) {
        const std::string tag = std::string(family.name) + "-" + est.name +
                                "-seed" + std::to_string(seed);
        SCOPED_TRACE(tag);
        CrashAtEveryBoundary(est, stream, tag);
      }
    }
  }
}

TEST(ChaosRecovery, CrashTwiceResumesToTheReferenceAnswer) {
  // Two crashes in one run: a fresh instance resumes from a mid-pass-0
  // checkpoint with checkpointing on, then another resumes from the
  // mid-pass-1 checkpoint that resumed run wrote. Every checkpoint the
  // resumed run writes must be the uninterrupted run's at that boundary,
  // byte for byte.
  Graph g = gen::ErdosRenyiGnp(20, 0.3, 11);
  AdjacencyListStream stream(&g, 11);
  const std::size_t lists = g.num_vertices();
  const std::size_t first_crash = lists / 2;           // inside pass 0
  const std::size_t second_crash = lists + lists / 3;  // inside pass 1
  int two_pass_estimators = 0;
  for (const SnapshotEstimator& est : SnapshotEstimators(11)) {
    if (est.make()->passes() != 2) continue;
    ++two_pass_estimators;
    SCOPED_TRACE(est.name);
    std::vector<std::vector<std::uint8_t>> reference_snaps;
    std::unique_ptr<StreamAlgorithm> reference = est.make();
    StatusOr<RunReport> ref = RunPassesChecked(
        stream, reference.get(),
        {.on_checkpoint = [&](int, std::size_t,
                              std::vector<std::uint8_t> bytes) {
          reference_snaps.push_back(std::move(bytes));
        }});
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_EQ(reference_snaps.size(), 2 * lists);

    std::vector<std::vector<std::uint8_t>> resumed_snaps;
    std::unique_ptr<StreamAlgorithm> first = est.make();
    StatusOr<RunReport> first_run = RunPassesChecked(
        stream, first.get(),
        {.on_checkpoint = [&](int, std::size_t,
                              std::vector<std::uint8_t> bytes) {
           resumed_snaps.push_back(std::move(bytes));
         },
         .resume_from = reference_snaps[first_crash]});
    ASSERT_TRUE(first_run.ok()) << first_run.status().ToString();
    ExpectReportsEqual(*first_run, *ref);
    EXPECT_EQ(est.digest(first.get()), est.digest(reference.get()));
    ASSERT_EQ(resumed_snaps.size(), 2 * lists - first_crash - 1);
    for (std::size_t i = 0; i < resumed_snaps.size(); ++i) {
      EXPECT_EQ(resumed_snaps[i], reference_snaps[first_crash + 1 + i])
          << "boundary " << first_crash + 1 + i;
    }

    std::unique_ptr<StreamAlgorithm> second = est.make();
    StatusOr<RunReport> second_run = RunPassesChecked(
        stream, second.get(),
        {.resume_from = resumed_snaps[second_crash - first_crash - 1]});
    ASSERT_TRUE(second_run.ok()) << second_run.status().ToString();
    ExpectReportsEqual(*second_run, *ref);
    EXPECT_EQ(est.digest(second.get()), est.digest(reference.get()));
  }
  EXPECT_GT(two_pass_estimators, 0);
}

TEST(ChaosRecovery, DoubleResumeFromOneSnapshotIsDeterministic) {
  // A snapshot is a pure value: resuming twice must not differ (and must
  // not mutate the bytes).
  Graph g = gen::BarabasiAlbert(12, 2, 5);
  AdjacencyListStream stream(&g, 5);
  core::OnePassTriangleOptions options;
  options.sample_size = 6;
  options.seed = 23;

  std::vector<std::vector<std::uint8_t>> snapshots;
  core::OnePassTriangleCounter algo(options);
  auto collect = [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
    snapshots.push_back(std::move(bytes));
  };
  ASSERT_TRUE(RunPassesChecked(stream, &algo, {.on_checkpoint = collect}).ok());
  ASSERT_FALSE(snapshots.empty());
  const std::vector<std::uint8_t> mid = snapshots[snapshots.size() / 2];

  core::OnePassTriangleCounter first(options);
  core::OnePassTriangleCounter second(options);
  ASSERT_TRUE(RunPassesChecked(stream, &first, {.resume_from = mid}).ok());
  EXPECT_EQ(mid, snapshots[snapshots.size() / 2]);
  ASSERT_TRUE(RunPassesChecked(stream, &second, {.resume_from = mid}).ok());
  EXPECT_EQ(first.Estimate(), second.Estimate());
  EXPECT_EQ(first.result().detections, second.result().detections);
}

TEST(ChaosRecovery, BatchedAndPairwiseCheckpointsAreByteIdentical) {
  // The bit-identity contract, extended to snapshots: whether lists arrive
  // as spans or as per-pair events, the state at each boundary — and hence
  // the serialized snapshot — must be the same bytes.
  Graph g = gen::ErdosRenyiGnp(12, 0.4, 9);
  AdjacencyListStream stream(&g, 9);
  PairwiseOnly<AdjacencyListStream> pairwise(&stream);
  core::TwoPassTriangleOptions options;
  options.sample_size = 8;
  options.seed = 3;

  std::vector<std::vector<std::uint8_t>> batched_snaps;
  std::vector<std::vector<std::uint8_t>> pairwise_snaps;
  {
    core::TwoPassTriangleCounter algo(options);
    auto collect = [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
      batched_snaps.push_back(std::move(bytes));
    };
    ASSERT_TRUE(
        RunPassesChecked(stream, &algo, {.on_checkpoint = collect}).ok());
  }
  {
    core::TwoPassTriangleCounter algo(options);
    auto collect = [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
      pairwise_snaps.push_back(std::move(bytes));
    };
    ASSERT_TRUE(
        RunPassesChecked(pairwise, &algo, {.on_checkpoint = collect}).ok());
  }
  ASSERT_EQ(batched_snaps.size(), pairwise_snaps.size());
  for (std::size_t i = 0; i < batched_snaps.size(); ++i) {
    EXPECT_EQ(batched_snaps[i], pairwise_snaps[i]) << "boundary " << i;
  }
}

// --- Corruption: every damaged snapshot is a typed error, never a run. ---

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = gen::ErdosRenyiGnp(10, 0.5, 4);
    stream_ = std::make_unique<AdjacencyListStream>(&graph_, 4);
    options_.sample_size = 7;
    options_.seed = 13;
    core::TwoPassTriangleCounter algo(options_);
    auto keep_last = [this](int, std::size_t,
                            std::vector<std::uint8_t> bytes) {
      snapshot_ = std::move(bytes);
    };
    ASSERT_TRUE(
        RunPassesChecked(*stream_, &algo, {.on_checkpoint = keep_last}).ok());
    ASSERT_FALSE(snapshot_.empty());
  }

  StatusCode ResumeCode(const std::vector<std::uint8_t>& bytes) {
    core::TwoPassTriangleCounter algo(options_);
    StatusOr<RunReport> result =
        RunPassesChecked(*stream_, &algo, {.resume_from = bytes});
    EXPECT_FALSE(result.ok());
    return result.status().code();
  }

  Graph graph_;
  std::unique_ptr<AdjacencyListStream> stream_;
  core::TwoPassTriangleOptions options_;
  std::vector<std::uint8_t> snapshot_;
};

TEST_F(SnapshotCorruptionTest, TruncationIsDataLoss) {
  std::vector<std::uint8_t> cut(snapshot_.begin(), snapshot_.end() - 9);
  EXPECT_EQ(ResumeCode(cut), StatusCode::kDataLoss);
  cut.assign(snapshot_.begin(), snapshot_.begin() + 10);
  EXPECT_EQ(ResumeCode(cut), StatusCode::kDataLoss);
}

TEST_F(SnapshotCorruptionTest, BitFlipsNeverResume) {
  // Flip a spread of bits across the envelope; none may produce a run.
  for (std::size_t i = 0; i < snapshot_.size(); i += 13) {
    std::vector<std::uint8_t> flipped = snapshot_;
    flipped[i] ^= 0x20;
    core::TwoPassTriangleCounter algo(options_);
    StatusOr<RunReport> result =
        RunPassesChecked(*stream_, &algo, {.resume_from = flipped});
    EXPECT_FALSE(result.ok()) << "byte " << i;
  }
}

TEST_F(SnapshotCorruptionTest, BadMagicIsInvalidArgument) {
  std::vector<std::uint8_t> bad = snapshot_;
  bad[0] = 'X';
  EXPECT_EQ(ResumeCode(bad), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotCorruptionTest, WrongVersionIsFailedPrecondition) {
  std::vector<std::uint8_t> bad = snapshot_;
  bad[8] = static_cast<std::uint8_t>(snapshot::kSnapshotVersion + 7);
  testing_util::Reseal(bad);
  EXPECT_EQ(ResumeCode(bad), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotCorruptionTest, HugePassCountWithValidCrcIsDataLoss) {
  // The CRC vouches for the bytes, not for the counts inside them: a
  // per-pass count no payload could hold, resealed under a valid CRC, must
  // be rejected before anything is sized by it.
  std::vector<std::uint8_t> bad = snapshot_;
  testing_util::PatchU64(bad, testing_util::kCheckpointPassCountOffset,
                         std::uint64_t{1} << 50);
  testing_util::Reseal(bad);
  EXPECT_EQ(ResumeCode(bad), StatusCode::kDataLoss);
}

TEST_F(SnapshotCorruptionTest, HugePassWithValidCrcIsFailedPrecondition) {
  // The pass cursor is read from the bytes, so the shape check must reject
  // it before doing arithmetic on it: the largest int, resealed under a
  // valid CRC, is a pass-shape mismatch, not an overflow.
  std::vector<std::uint8_t> bad = snapshot_;
  testing_util::PatchU64(bad, testing_util::kCheckpointPassOffset,
                         std::numeric_limits<std::int32_t>::max());
  testing_util::Reseal(bad);
  EXPECT_EQ(ResumeCode(bad), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotCorruptionTest, ContractBetweenPassesIsFailedPrecondition) {
  // Checkpoints are taken inside a pass, so a contract section that says
  // it is between passes disagrees with the run cursor; resuming it would
  // feed list events to a contract that has no pass open.
  const std::size_t at = testing_util::CheckpointContractOffset(2) +
                         testing_util::kContractInPassOffset;
  ASSERT_EQ(snapshot_[at], 1);
  std::vector<std::uint8_t> bad = snapshot_;
  bad[at] = 0;
  testing_util::Reseal(bad);
  EXPECT_EQ(ResumeCode(bad), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotCorruptionTest, ContractPassOffTheCursorIsFailedPrecondition) {
  // The contract's pass field (pass + 1) is read from the bytes: one that
  // does not fit an int must be rejected before arithmetic on it, and one
  // that names another pass than the run cursor's disagrees with it.
  const std::size_t at = testing_util::CheckpointContractOffset(2) +
                         testing_util::kContractPassOffset;
  ASSERT_EQ(testing_util::PeekU64(snapshot_, at), 2u);  // the last pass, 1
  for (const std::uint64_t field :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{3},
        std::uint64_t{1} << 31, ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> bad = snapshot_;
    testing_util::PatchU64(bad, at, field);
    testing_util::Reseal(bad);
    EXPECT_EQ(ResumeCode(bad), StatusCode::kFailedPrecondition)
        << "pass field " << field;
  }
}

TEST_F(SnapshotCorruptionTest, HugeSeenEdgeCountWithValidCrcIsDataLoss) {
  // An edge-stream contract's seen-edge count, like the per-pass count, is
  // bounded by the payload that holds the edges: a resealed count no
  // payload could hold must not size a reservation.
  const RandomOrderStream stream(&graph_, 4);
  core::RandomOrderTriangleOptions options;
  options.prefix_size = 6;
  options.seed = 13;
  std::vector<std::vector<std::uint8_t>> snapshots;
  core::RandomOrderTriangleCounter algo(options);
  auto collect = [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
    snapshots.push_back(std::move(bytes));
  };
  ASSERT_TRUE(
      RunPassesChecked(stream, &algo, {.on_checkpoint = collect}).ok());
  ASSERT_FALSE(snapshots.empty());
  std::vector<std::uint8_t> bad = snapshots[snapshots.size() / 2];
  const std::size_t contract = testing_util::CheckpointContractOffset(1);
  const std::size_t at =
      contract + testing_util::kEdgeContractSeenCountOffset;
  // One pass in: every edge delivered so far has been seen once.
  ASSERT_EQ(testing_util::PeekU64(bad, at),
            testing_util::PeekU64(
                bad, contract + testing_util::kContractPositionOffset));
  testing_util::PatchU64(bad, at, std::uint64_t{1} << 50);
  testing_util::Reseal(bad);
  core::RandomOrderTriangleCounter resumed(options);
  StatusOr<RunReport> result =
      RunPassesChecked(stream, &resumed, {.resume_from = bad});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

// A random-order run whose checkpoints carry an edge-stream contract, and
// the offsets of that contract's seen edges: a count, then the keys.
class EdgeContractRestoreTest : public ::testing::Test {
 protected:
  // The golden random-order run (tests/golden_test.cc), whose version-2
  // fixture is committed.
  EdgeContractRestoreTest()
      : graph_(gen::ErdosRenyiGnp(16, 0.4, 7)), stream_(&graph_, 7) {
    options_.prefix_size = 10;
    options_.seed = 7;
  }

  void SetUp() override {
    core::RandomOrderTriangleCounter algo(options_);
    auto collect = [this](int, std::size_t, std::vector<std::uint8_t> bytes) {
      checkpoints_.push_back(std::move(bytes));
    };
    ASSERT_TRUE(
        RunPassesChecked(stream_, &algo, {.on_checkpoint = collect}).ok());
    ASSERT_FALSE(checkpoints_.empty());
    digest_ = Digest(algo);
  }

  static std::string Digest(const core::RandomOrderTriangleCounter& algo) {
    const core::RandomOrderTriangleResult r = algo.result();
    return testing_util::Digest(r.estimate, r.edge_count, r.detections,
                                r.prefix_edges, r.scale);
  }

  // Resumes a fresh counter from `bytes`; a resume that succeeds must reach
  // the uninterrupted run's digest.
  StatusCode ResumeCode(const std::vector<std::uint8_t>& bytes) {
    core::RandomOrderTriangleCounter algo(options_);
    StatusOr<RunReport> result =
        RunPassesChecked(stream_, &algo, {.resume_from = bytes});
    if (result.ok()) {
      EXPECT_EQ(Digest(algo), digest_);
    }
    return result.status().code();
  }

  static constexpr std::size_t kContract =
      testing_util::CheckpointContractOffset(1);
  static constexpr std::size_t kSeenCount =
      kContract + testing_util::kEdgeContractSeenCountOffset;

  Graph graph_;
  RandomOrderStream stream_;
  core::RandomOrderTriangleOptions options_;
  std::vector<std::vector<std::uint8_t>> checkpoints_;
  std::string digest_;
};

TEST_F(EdgeContractRestoreTest, SeenKeyThatIsNotAnEdgeIsDataLoss) {
  // The contract marks seen edges by CSR slot, so each restored key must
  // name an edge of the graph. The mid-run checkpoint's last seen key,
  // resealed as a key above the one before it that names no edge, must
  // not resume.
  const std::vector<std::uint8_t>& mid = checkpoints_[checkpoints_.size() / 2];
  const std::uint64_t count = testing_util::PeekU64(mid, kSeenCount);
  ASSERT_GE(count, 2u);
  const std::size_t last_at = kSeenCount + 8 * count;
  const EdgeKey before = testing_util::PeekU64(mid, last_at - 8);
  const VertexId n = static_cast<VertexId>(graph_.num_vertices());

  std::vector<std::pair<const char*, EdgeKey>> bad_keys;
  for (VertexId a = 0; a < n && bad_keys.empty(); ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      if (!graph_.HasEdge(a, b) && MakeEdgeKey(a, b) > before) {
        bad_keys.emplace_back("non-edge", MakeEdgeKey(a, b));
        break;
      }
    }
  }
  ASSERT_EQ(bad_keys.size(), 1u) << "no non-edge above the key before";
  for (const Edge& e : graph_.edges()) {
    const EdgeKey reversed = (EdgeKey{e.v} << 32) | e.u;
    if (reversed > before) {
      bad_keys.emplace_back("reversed edge", reversed);
      break;
    }
  }
  bad_keys.emplace_back("self-loop", (EdgeKey{n - 1} << 32) | (n - 1));
  bad_keys.emplace_back("out-of-range id", (EdgeKey{n - 1} << 32) | n);
  ASSERT_EQ(bad_keys.size(), 4u);

  EXPECT_EQ(ResumeCode(mid), StatusCode::kOk);
  for (const auto& [what, key] : bad_keys) {
    std::vector<std::uint8_t> bad = mid;
    testing_util::PatchU64(bad, last_at, key);
    testing_util::Reseal(bad);
    EXPECT_EQ(ResumeCode(bad), StatusCode::kDataLoss) << what;
  }
}

TEST_F(EdgeContractRestoreTest, Version2FirstPassCapacityIsNeverReserved) {
  // Versions 1 and 2 stored the contract's seen edges in a hash set, with
  // its bucket count after the keys, and the pass-0 record's capacity
  // after its count. A restore reads both and discards them: the
  // committed version-2 fixture, resealed with that capacity at 2^40 (an
  // 8 TiB reservation), resumes to the uninterrupted run's digest.
  std::ifstream in(std::string(CYCLESTREAM_GOLDEN_DIR) +
                       "/v2/random-order-triangle.snap",
                   std::ios::binary);
  const std::vector<std::uint8_t> fixture(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_FALSE(fixture.empty());
  ASSERT_EQ(fixture[8], 2);  // the version word
  const std::uint64_t seen = testing_util::PeekU64(fixture, kSeenCount);
  const std::size_t record_at = kSeenCount + 8 + 8 * seen + 8;
  // Pass 0: the record holds every edge delivered so far, and its capacity
  // is the constructor's reservation of m.
  ASSERT_EQ(testing_util::PeekU64(fixture, record_at),
            testing_util::PeekU64(
                fixture, kContract + testing_util::kContractPositionOffset));
  ASSERT_EQ(testing_util::PeekU64(fixture, record_at + 8),
            graph_.num_edges());

  EXPECT_EQ(ResumeCode(fixture), StatusCode::kOk);
  std::vector<std::uint8_t> big = fixture;
  testing_util::PatchU64(big, record_at + 8, std::uint64_t{1} << 40);
  testing_util::Reseal(big);
  EXPECT_EQ(ResumeCode(big), StatusCode::kOk);
}

TEST_F(SnapshotCorruptionTest, OptionsMismatchIsFailedPrecondition) {
  core::TwoPassTriangleOptions other = options_;
  other.sample_size += 1;
  core::TwoPassTriangleCounter algo(other);
  StatusOr<RunReport> result =
      RunPassesChecked(*stream_, &algo, {.resume_from = snapshot_});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotCorruptionTest, WrongAlgorithmIsFailedPrecondition) {
  // A one-pass algorithm cannot adopt a two-pass checkpoint: the pass
  // bookkeeping disagrees before any estimator state is touched.
  core::ExactStreamTriangleCounter algo;
  StatusOr<RunReport> result =
      RunPassesChecked(*stream_, &algo, {.resume_from = snapshot_});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotCorruptionTest, WrongGraphIsFailedPrecondition) {
  Graph other = gen::ErdosRenyiGnp(11, 0.5, 4);
  AdjacencyListStream other_stream(&other, 4);
  core::TwoPassTriangleCounter algo(options_);
  StatusOr<RunReport> result =
      RunPassesChecked(other_stream, &algo, {.resume_from = snapshot_});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ChaosRecovery, ResumeOverFaultyStreamStillDetectsTheFault) {
  // Recovery must not weaken validation: a stream that breaks the contract
  // after the checkpoint is still rejected by the resumed run, with the
  // same violation the uninterrupted checked run reports.
  Graph g = gen::ErdosRenyiGnp(12, 0.4, 6);
  AdjacencyListStream base(&g, 6);
  FaultSpec spec;
  spec.kind = FaultKind::kDropPair;
  spec.pass = 0;
  spec.seed = 21;
  FaultInjectingStream faulty(&base, spec);

  core::ExactStreamTriangleCounter reference;
  StatusOr<RunReport> ref = RunPassesChecked(faulty, &reference);
  ASSERT_FALSE(ref.ok());

  std::vector<std::uint8_t> last;
  core::ExactStreamTriangleCounter crashed;
  auto keep_last = [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
    last = std::move(bytes);
  };
  StatusOr<RunReport> run =
      RunPassesChecked(faulty, &crashed, {.on_checkpoint = keep_last});
  EXPECT_FALSE(run.ok());
  ASSERT_FALSE(last.empty());  // checkpoints exist up to the violation

  core::ExactStreamTriangleCounter resumed;
  StatusOr<RunReport> result =
      RunPassesChecked(faulty, &resumed, {.resume_from = last});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ref.status().code());
  EXPECT_EQ(result.status().message(), ref.status().message());
}

// The envelopes a checked run of `algo` over `stream` checkpoints in `pass`.
std::vector<std::vector<std::uint8_t>> CheckpointsInPass(
    const AdjacencyListStream& stream, StreamAlgorithm* algo, int pass) {
  std::vector<std::vector<std::uint8_t>> out;
  auto collect = [&](int at, std::size_t, std::vector<std::uint8_t> bytes) {
    if (at == pass) out.push_back(std::move(bytes));
  };
  EXPECT_TRUE(RunPassesChecked(stream, algo, {.on_checkpoint = collect}).ok());
  return out;
}

// Envelope offset just past the last copy of the fields `write` encodes.
// The estimator's section is a checkpoint's last, so the last copy of its
// leading options is its own, whatever the contract section holds.
std::size_t OffsetAfter(const std::vector<std::uint8_t>& envelope,
                        const std::function<void(snapshot::SnapshotWriter&)>&
                            write) {
  snapshot::SnapshotWriter w;
  write(w);
  const std::vector<std::uint8_t> sealed = std::move(w).Finish();
  const auto fields = sealed.begin() + 20;
  const auto fields_end = sealed.end() - 4;
  const auto at =
      std::find_end(envelope.begin(), envelope.end(), fields, fields_end);
  EXPECT_NE(at, envelope.end());
  return static_cast<std::size_t>((at - envelope.begin()) +
                                  (fields_end - fields));
}

TEST(ChaosRecovery, EstimatorPassFieldOutOfRangeIsFailedPrecondition) {
  // An estimator's own pass field (stored as pass + 1) is read from the
  // bytes. One above the estimator's pass count, resealed into a mid-pass-0
  // checkpoint under a valid CRC, must be rejected before any arithmetic
  // on it, not resume to a wrong estimate. So must one in range that names
  // another pass than the run cursor's, which would resume the estimator
  // in another pass than the stream.
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream(&g, 7);
  core::TwoPassTriangleOptions triangle;
  triangle.sample_size = 30;
  triangle.seed = 3;
  core::TriangleDistinguisherOptions distinguisher;
  distinguisher.sample_size = 30;
  distinguisher.seed = 3;
  core::FourCycleOptions four_cycle;
  four_cycle.sample_size = 30;
  four_cycle.seed = 3;
  struct Case {
    const char* name;
    std::function<std::unique_ptr<StreamAlgorithm>()> make;
    // The options the estimator's section starts with, ahead of its pass.
    std::function<void(snapshot::SnapshotWriter&)> options;
  };
  const Case cases[] = {
      {"two-pass-triangle",
       [&] { return std::make_unique<core::TwoPassTriangleCounter>(triangle); },
       [](snapshot::SnapshotWriter& w) {
         w.WriteU64(30);
         w.WriteU64(3);
         w.WriteBool(true);
       }},
      {"triangle-distinguisher",
       [&] {
         return std::make_unique<core::TriangleDistinguisher>(distinguisher);
       },
       [](snapshot::SnapshotWriter& w) {
         w.WriteU64(30);
         w.WriteU64(3);
       }},
      {"two-pass-four-cycle",
       [&] {
         return std::make_unique<core::TwoPassFourCycleCounter>(four_cycle);
       },
       [](snapshot::SnapshotWriter& w) {
         w.WriteU64(30);
         w.WriteU64(3);
         w.WriteU64(0);  // max_wedges
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<StreamAlgorithm> algo = c.make();
    const std::vector<std::vector<std::uint8_t>> checkpoints =
        CheckpointsInPass(stream, algo.get(), 0);
    ASSERT_FALSE(checkpoints.empty());
    const std::vector<std::uint8_t>& mid = checkpoints[checkpoints.size() / 2];
    const std::size_t at = OffsetAfter(mid, c.options);
    ASSERT_EQ(testing_util::PeekU64(mid, at), 1u);  // pass 0
    for (const std::uint64_t field :
         {std::uint64_t{0}, std::uint64_t{2}, std::uint64_t{3},
          std::uint64_t{1} << 31, ~std::uint64_t{0}}) {
      std::vector<std::uint8_t> bad = mid;
      testing_util::PatchU64(bad, at, field);
      testing_util::Reseal(bad);
      std::unique_ptr<StreamAlgorithm> resumed = c.make();
      StatusOr<RunReport> result =
          RunPassesChecked(stream, resumed.get(), {.resume_from = bad});
      ASSERT_FALSE(result.ok()) << "pass field " << field;
      EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
          << "pass field " << field << ": " << result.status().ToString();
    }
  }
}

TEST(ChaosRecovery, ZeroGeneratorStateIsDataLoss) {
  // Wedge sampling stores its generator's four state words, and no seeded
  // generator reaches all zeros. A checkpoint resealed with them zeroed is
  // corrupt: the resume must fail with kDataLoss, not abort the process.
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream(&g, 7);
  core::WedgeSamplingOptions options;
  options.reservoir_size = 12;
  options.seed = 3;
  core::WedgeSamplingTriangleCounter algo(options);
  const std::vector<std::vector<std::uint8_t>> checkpoints =
      CheckpointsInPass(stream, &algo, 0);
  ASSERT_FALSE(checkpoints.empty());
  std::vector<std::uint8_t> bad = checkpoints[checkpoints.size() / 2];
  const std::size_t at = OffsetAfter(bad, [](snapshot::SnapshotWriter& w) {
    w.WriteU64(12);
    w.WriteU64(3);
  });
  ASSERT_NE(testing_util::PeekU64(bad, at), 0u);
  std::fill(bad.begin() + at, bad.begin() + at + 4 * 8, 0);
  testing_util::Reseal(bad);
  core::WedgeSamplingTriangleCounter resumed(options);
  StatusOr<RunReport> result =
      RunPassesChecked(stream, &resumed, {.resume_from = bad});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
      << result.status().ToString();
}

// A wedge checkpoint's mid-pass-0 envelope for a reservoir of `reservoir`
// slots, resealed after `patch` edits it, resumed into a fresh counter.
// The patch gets the envelope offset of the wedge count, which the skip
// state follows (version 4): W's bits, then the next admitted index.
class WedgeSkipStateTest : public ::testing::Test {
 protected:
  using Patch = std::function<void(std::vector<std::uint8_t>&, std::size_t)>;

  Status Resume(std::size_t reservoir, const Patch& patch) const {
    core::WedgeSamplingOptions options;
    options.reservoir_size = reservoir;
    options.seed = 3;
    core::WedgeSamplingTriangleCounter algo(options);
    const std::vector<std::vector<std::uint8_t>> checkpoints =
        CheckpointsInPass(stream_, &algo, 0);
    EXPECT_FALSE(checkpoints.empty());
    std::vector<std::uint8_t> bytes = checkpoints[checkpoints.size() / 2];
    const std::size_t count_at =
        OffsetAfter(bytes,
                    [reservoir](snapshot::SnapshotWriter& w) {
                      w.WriteU64(reservoir);
                      w.WriteU64(3);
                    }) +
        4 * 8;  // past the generator's state words
    patch(bytes, count_at);
    testing_util::Reseal(bytes);
    core::WedgeSamplingTriangleCounter resumed(options);
    return RunPassesChecked(stream_, &resumed, {.resume_from = bytes})
        .status();
  }

  static std::uint64_t Bits(double w) { return std::bit_cast<std::uint64_t>(w); }

  // Full by the middle of the pass.
  static constexpr std::size_t kFullSlots = 12;

  const Graph graph_ = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream_{&graph_, 7};
};

TEST_F(WedgeSkipStateTest, ThresholdOutsideTheUnitIntervalIsDataLoss) {
  // The reservoir is full, so W must lie strictly inside (0, 1). Each of
  // these would otherwise reach the gap's floor(log U / log1p(-W)) and its
  // cast to an integer, which UBSan flags for NaN and infinity.
  EXPECT_TRUE(Resume(kFullSlots, [](auto& bytes, std::size_t at) {
                const double w = std::bit_cast<double>(
                    testing_util::PeekU64(bytes, at + 8));
                ASSERT_GE(testing_util::PeekU64(bytes, at), kFullSlots);
                ASSERT_GT(w, 0.0);
                ASSERT_LT(w, 1.0);
              }).ok());
  for (const double w : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 0.0, 1.0,
                         -0.5}) {
    const Status status = Resume(kFullSlots, [w](auto& bytes, std::size_t at) {
      testing_util::PatchU64(bytes, at + 8, Bits(w));
    });
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "W " << w << ": " << status.ToString();
  }
}

TEST_F(WedgeSkipStateTest, NextIndexNotAboveTheWedgeCountIsDataLoss) {
  // Every wedge up to the count has been offered, so the next one to admit
  // lies above it.
  for (const std::uint64_t below : {0, 1, 2}) {
    const Status status =
        Resume(kFullSlots, [below](auto& bytes, std::size_t at) {
          const std::uint64_t count = testing_util::PeekU64(bytes, at);
          ASSERT_GT(testing_util::PeekU64(bytes, at + 16), count);
          testing_util::PatchU64(bytes, at + 16, count - below);
        });
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "count - " << below << ": " << status.ToString();
  }
  const Status zero = Resume(kFullSlots, [](auto& bytes, std::size_t at) {
    testing_util::PatchU64(bytes, at + 16, 0);
  });
  EXPECT_EQ(zero.code(), StatusCode::kDataLoss) << zero.ToString();
}

TEST_F(WedgeSkipStateTest, WedgeCountThatDisagreesWithTheReservoirIsDataLoss) {
  // The reservoir holds min(wedge count, slots) wedges. A full reservoir
  // with a count below its slots would draw an older checkpoint's W from
  // N - j <= 0, and a filling one with another count would hold a wedge
  // twice or miss one; either would resume to a wrong estimate.
  const Status full = Resume(kFullSlots, [](auto& bytes, std::size_t at) {
    testing_util::PatchU64(bytes, at, kFullSlots - 1);
  });
  EXPECT_EQ(full.code(), StatusCode::kDataLoss) << full.ToString();
  const Status filling =
      Resume(2 * graph_.WedgeCount(), [](auto& bytes, std::size_t at) {
        const std::uint64_t count = testing_util::PeekU64(bytes, at) + 1;
        testing_util::PatchU64(bytes, at, count);
        testing_util::PatchU64(bytes, at + 16, count + 1);
      });
  EXPECT_EQ(filling.code(), StatusCode::kDataLoss) << filling.ToString();
}

TEST_F(WedgeSkipStateTest, SkipStateWhileTheReservoirFillsIsDataLoss) {
  // With more slots than the graph has wedges the reservoir never fills:
  // every wedge is admitted, so W is 1 and the next index is the count
  // plus one. Any other state is one no run reaches.
  const std::size_t slots = 2 * graph_.WedgeCount();
  EXPECT_TRUE(Resume(slots, [](auto& bytes, std::size_t at) {
                const std::uint64_t count = testing_util::PeekU64(bytes, at);
                ASSERT_EQ(testing_util::PeekU64(bytes, at + 8), Bits(1.0));
                ASSERT_EQ(testing_util::PeekU64(bytes, at + 16), count + 1);
              }).ok());
  const Patch patches[] = {
      [](auto& bytes, std::size_t at) {
        testing_util::PatchU64(bytes, at + 8, Bits(0.5));
      },
      [](auto& bytes, std::size_t at) {
        testing_util::PatchU64(bytes, at + 16,
                               testing_util::PeekU64(bytes, at) + 2);
      },
      [](auto& bytes, std::size_t at) {
        testing_util::PatchU64(bytes, at + 8, Bits(0.25));
        testing_util::PatchU64(bytes, at + 16,
                               testing_util::PeekU64(bytes, at) + 7);
      },
  };
  for (const Patch& patch : patches) {
    const Status status = Resume(slots, patch);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }
}

// The final state of a one-pass triangle counter (sample size 30, seed 3)
// run over ER(40, 0.3, 7), and the offset of its watcher map's first key:
// past the options, the counters, the edge sample's members and heap, and
// the map's table size and key count.
struct OnePassWatchers {
  core::OnePassTriangleOptions options;
  std::vector<std::uint8_t> bytes;
  std::size_t first_key_at = 0;
};

OnePassWatchers OnePassWatcherMap() {
  OnePassWatchers out;
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream(&g, 7);
  out.options.sample_size = 30;
  out.options.seed = 3;
  core::OnePassTriangleCounter algo(out.options);
  EXPECT_TRUE(RunPassesChecked(stream, &algo).ok());
  snapshot::SnapshotWriter w;
  algo.Serialize(w);
  out.bytes = std::move(w).Finish();

  StatusOr<snapshot::SnapshotReader> r =
      snapshot::SnapshotReader::Open(out.bytes);
  EXPECT_TRUE(r.ok());
  if (!r.ok()) return out;
  for (int i = 0; i < 4; ++i) r->ReadU64();
  r->ReadBool();
  const std::uint64_t members = r->ReadU64();
  for (std::uint64_t i = 0; i < members; ++i) {
    r->ReadU64();
    r->ReadBool();
    r->ReadU64();
  }
  const std::uint64_t heap = r->ReadU64();
  r->ReadU64();
  for (std::uint64_t i = 0; i < heap; ++i) r->ReadU64();
  r->ReadU64();
  EXPECT_GE(r->ReadU64(), 2u);
  EXPECT_TRUE(r->status().ok());
  out.first_key_at = out.bytes.size() - 4 - r->remaining();
  return out;
}

// Restores a fresh one-pass triangle counter from resealed `bytes`.
Status RestoreOnePass(const core::OnePassTriangleOptions& options,
                      std::vector<std::uint8_t> bytes) {
  testing_util::Reseal(bytes);
  StatusOr<snapshot::SnapshotReader> reader =
      snapshot::SnapshotReader::Open(bytes);
  EXPECT_TRUE(reader.ok());
  if (!reader.ok()) return reader.status();
  core::OnePassTriangleCounter resumed(options);
  return resumed.Restore(*reader);
}

TEST(ChaosRecovery, RepeatedWatcherKeyIsDataLoss) {
  // A watcher map stores its keys ascending. A checkpoint whose second key
  // is rewritten to the first, resealed under a valid CRC, must fail to
  // restore with kDataLoss. Without the Loader's key-order check the
  // repeated key's list was loaded into the first key's filled list, and
  // the restore aborted the process.
  OnePassWatchers watchers = OnePassWatcherMap();
  std::vector<std::uint8_t>& bad = watchers.bytes;
  // Each key is a u32, then its list's size, capacity and edge keys.
  const std::size_t first_at = watchers.first_key_at;
  const std::size_t second_at =
      first_at + 4 + 2 * 8 + 8 * testing_util::PeekU64(bad, first_at + 4);
  ASSERT_EQ(testing_util::PeekU64(bad, first_at) & 0xffffffffu, 0u);
  ASSERT_EQ(testing_util::PeekU64(bad, second_at) & 0xffffffffu, 1u);

  std::copy_n(bad.begin() + first_at, 4, bad.begin() + second_at);
  const Status status = RestoreOnePass(watchers.options, bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

TEST(ChaosRecovery, EdgeListedAtAVertexNotItsEndIsDataLoss) {
  // Vertex 0's first listed edge {0, 5} rewritten to the sampled edge
  // {1, 6}, resealed under a valid CRC: the lists no longer hold each
  // sampled edge under both its ends, so the restore is kDataLoss. It used
  // to load verbatim, and the resumed run would mark {1, 6} in vertex 0's
  // list.
  OnePassWatchers watchers = OnePassWatcherMap();
  std::vector<std::uint8_t>& bad = watchers.bytes;
  ASSERT_TRUE(RestoreOnePass(watchers.options, bad).ok());
  // Vertex 0's key, then its list's size and capacity.
  const std::size_t first_edge_at = watchers.first_key_at + 4 + 2 * 8;
  ASSERT_EQ(testing_util::PeekU64(bad, first_edge_at), MakeEdgeKey(0, 5));
  const EdgeKey sampled = MakeEdgeKey(1, 6);
  std::vector<std::uint8_t> sampled_bytes(8);
  testing_util::PatchU64(sampled_bytes, 0, sampled);
  ASSERT_NE(std::search(bad.begin(), bad.begin() + watchers.first_key_at,
                        sampled_bytes.begin(), sampled_bytes.end()),
            bad.begin() + watchers.first_key_at)
      << "{1, 6} is not in the edge sample";
  testing_util::PatchU64(bad, first_edge_at, sampled);
  const Status status = RestoreOnePass(watchers.options, bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

// Serializes `algo`, overwrites the slot index `from_end` bytes before the
// payload's end (a u32 in a watch list) with 2^24 - 1, reseals the bytes
// and returns the status of restoring a fresh instance from them. The
// intact bytes must restore.
template <typename Algo, typename Options>
Status RestoreWithSlotPastTheSlab(const Algo& algo, const Options& options,
                                  std::size_t from_end) {
  snapshot::SnapshotWriter w;
  algo.Serialize(w);
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  const auto restore = [&options](std::span<const std::uint8_t> envelope) {
    StatusOr<snapshot::SnapshotReader> reader =
        snapshot::SnapshotReader::Open(envelope);
    if (!reader.ok()) return reader.status();
    Algo resumed(options);
    return resumed.Restore(*reader);
  };
  EXPECT_TRUE(restore(bytes).ok());
  const std::size_t at = bytes.size() - 4 - from_end;
  EXPECT_LT(testing_util::PeekU64(bytes, at) & 0xffffffffu, 1u << 16)
      << "not a slot index";
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(((1u << 24) - 1) >> (8 * i));
  }
  testing_util::Reseal(bytes);
  return restore(bytes);
}

// One test per estimator that names slots of a slab in its checkpoint: a
// resealed slot index past the slab is kDataLoss on restore. Each used to
// restore OK, and the resumed run read (or wrote) far past the slab.

TEST(ChaosRecovery, OnePassFourCycleWatchSlotPastTheSlabIsDataLoss) {
  // The layout ends with the wedge watch lists, keys ascending.
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream(&g, 7);
  core::OnePassFourCycleOptions options;
  options.sample_size = 30;
  options.seed = 3;
  core::OnePassFourCycleCounter algo(options);
  ASSERT_TRUE(RunPassesChecked(stream, &algo).ok());
  ASSERT_GT(algo.result().wedge_count, 0u);
  const Status status = RestoreWithSlotPastTheSlab(algo, options, 4);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

TEST(ChaosRecovery, OnePassFourCycleSlotOfTheWrongLivenessIsDataLoss) {
  // In range but of the wrong liveness: a free slot rewritten to a live
  // wedge (the next wedge would overwrite it), or a watched slot rewritten
  // to a free one. Walk the layout: options and counters, the edge
  // sample's members (each with its wedge slots) and heap, the edge lists,
  // the wedge slab, the free list, then the wedge watch lists.
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream(&g, 7);
  core::OnePassFourCycleOptions options;
  options.sample_size = 30;
  options.seed = 3;
  core::OnePassFourCycleCounter algo(options);
  ASSERT_TRUE(RunPassesChecked(stream, &algo).ok());
  snapshot::SnapshotWriter w;
  algo.Serialize(w);
  const std::vector<std::uint8_t> bytes = std::move(w).Finish();
  StatusOr<snapshot::SnapshotReader> r = snapshot::SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok());
  const auto offset = [&] { return bytes.size() - 4 - r->remaining(); };
  const auto skip_u64s = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) r->ReadU64();
  };
  skip_u64s(5);
  const std::uint64_t members = r->ReadU64();
  for (std::uint64_t i = 0; i < members; ++i) {
    r->ReadU64();
    r->ReadBool();
    const std::uint64_t wedges = r->ReadU64();
    r->ReadU64();
    for (std::uint64_t j = 0; j < wedges; ++j) r->ReadU32();
  }
  const std::uint64_t heap = r->ReadU64();
  r->ReadU64();
  skip_u64s(heap);
  r->ReadU64();
  const std::uint64_t vertices = r->ReadU64();
  for (std::uint64_t i = 0; i < vertices; ++i) {
    r->ReadU32();
    const std::uint64_t edges = r->ReadU64();
    r->ReadU64();
    skip_u64s(edges);
  }
  std::vector<std::uint32_t> live;
  const std::uint64_t slab = r->ReadU64();
  r->ReadU64();
  for (std::uint32_t idx = 0; idx < slab; ++idx) {
    if (!r->ReadBool()) continue;
    live.push_back(idx);
    for (int j = 0; j < 3; ++j) r->ReadU32();
    r->ReadU64();
  }
  const std::uint64_t free = r->ReadU64();
  r->ReadU64();
  const std::size_t free_at = offset();
  const std::uint32_t dead = r->ReadU32();
  for (std::uint64_t i = 1; i < free; ++i) r->ReadU32();
  skip_u64s(2);  // the watch index's table size and key count
  r->ReadU32();
  r->ReadU64();
  r->ReadU64();
  const std::size_t watched_at = offset();
  ASSERT_TRUE(r->status().ok());
  ASSERT_FALSE(live.empty());
  ASSERT_GE(free, 1u);

  const auto restore_with = [&](std::size_t at, std::uint32_t slot) {
    std::vector<std::uint8_t> bad = bytes;
    for (std::size_t i = 0; i < 4; ++i) {
      bad[at + i] = static_cast<std::uint8_t>(slot >> (8 * i));
    }
    testing_util::Reseal(bad);
    StatusOr<snapshot::SnapshotReader> reader =
        snapshot::SnapshotReader::Open(bad);
    core::OnePassFourCycleCounter resumed(options);
    return reader.ok() ? resumed.Restore(*reader) : reader.status();
  };
  EXPECT_TRUE(restore_with(free_at, dead).ok());
  const Status free_live = restore_with(free_at, live.front());
  EXPECT_EQ(free_live.code(), StatusCode::kDataLoss) << free_live.ToString();
  const Status watched_dead = restore_with(watched_at, dead);
  EXPECT_EQ(watched_dead.code(), StatusCode::kDataLoss)
      << watched_dead.ToString();
}

// --- Version 8's watch tables: hostile geometry and entries. ---

TEST(ChaosRecovery, WatchTableSizeOutsideItsBoundsIsDataLoss) {
  // The one-pass triangle's edge lists open with their table size, which
  // the index keeps a power of two in [4, 8] times its keys (at least 8).
  // Resealed above that (2^40 positions, a 20 TiB table), below it, or as
  // no power of two, the restore is kDataLoss before the table is resized
  // to it.
  OnePassWatchers watchers = OnePassWatcherMap();
  const std::vector<std::uint8_t>& bytes = watchers.bytes;
  const std::size_t table_at = watchers.first_key_at - 16;
  const std::uint64_t table = testing_util::PeekU64(bytes, table_at);
  const std::uint64_t keys = testing_util::PeekU64(bytes, table_at + 8);
  ASSERT_TRUE(std::has_single_bit(table));
  ASSERT_GE(table, 4 * keys);
  ASSERT_LE(table, std::max<std::uint64_t>(8, 8 * keys));
  ASSERT_TRUE(RestoreOnePass(watchers.options, bytes).ok());
  for (const std::uint64_t bad :
       {std::uint64_t{1} << 40, std::bit_floor(4 * keys - 1), table + 8}) {
    SCOPED_TRACE("table size " + std::to_string(bad));
    std::vector<std::uint8_t> resealed = bytes;
    testing_util::PatchU64(resealed, table_at, bad);
    const Status status = RestoreOnePass(watchers.options, resealed);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }
}

TEST(ChaosRecovery, EmptyWatchTableBelowItsMinimumIsDataLoss) {
  // A fresh wedge sampler's closure index holds no key, so its table has
  // the minimum 8 positions. The layout ends with that table's size, its
  // key count (0) and the current list's capacity. Resealed to 1, 2 or 4
  // positions, or to 16, the restore is kDataLoss: a table of one position
  // would make the next lookup's home shift 64 bits.
  core::WedgeSamplingOptions options;
  options.reservoir_size = 12;
  options.seed = 3;
  const core::WedgeSamplingTriangleCounter fresh(options);
  snapshot::SnapshotWriter w;
  fresh.Serialize(w);
  const std::vector<std::uint8_t> bytes = std::move(w).Finish();
  const std::size_t table_at = bytes.size() - 4 - 3 * 8;
  ASSERT_EQ(testing_util::PeekU64(bytes, table_at), 8u);
  ASSERT_EQ(testing_util::PeekU64(bytes, table_at + 8), 0u);
  const auto restore = [&options](std::vector<std::uint8_t> envelope) {
    testing_util::Reseal(envelope);
    StatusOr<snapshot::SnapshotReader> reader =
        snapshot::SnapshotReader::Open(envelope);
    if (!reader.ok()) return reader.status();
    core::WedgeSamplingTriangleCounter resumed(options);
    return resumed.Restore(*reader);
  };
  ASSERT_TRUE(restore(bytes).ok());
  for (const std::uint64_t bad : {1u, 2u, 4u, 16u}) {
    SCOPED_TRACE("table size " + std::to_string(bad));
    std::vector<std::uint8_t> resealed = bytes;
    testing_util::PatchU64(resealed, table_at, bad);
    const Status status = restore(resealed);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }
}

TEST(ChaosRecovery, WatchListCapacityOutsideItsBoundsIsDataLoss) {
  // Each list stores its capacity after its size; the index keeps it a
  // power of two in [size, 4·size]. Vertex 0's, resealed above that (2^40
  // entries, an 8 TiB buffer) or below its size, is kDataLoss before the
  // list is allocated.
  OnePassWatchers watchers = OnePassWatcherMap();
  const std::vector<std::uint8_t>& bytes = watchers.bytes;
  // Vertex 0's key, then its list's size and capacity.
  const std::size_t size_at = watchers.first_key_at + 4;
  const std::uint64_t size = testing_util::PeekU64(bytes, size_at);
  const std::uint64_t capacity = testing_util::PeekU64(bytes, size_at + 8);
  ASSERT_GE(size, 1u);
  ASSERT_TRUE(std::has_single_bit(capacity));
  ASSERT_GE(capacity, size);
  ASSERT_LE(capacity, 4 * size);
  for (const std::uint64_t bad :
       {std::uint64_t{1} << 40, std::bit_ceil(4 * size + 1), size - 1}) {
    SCOPED_TRACE("capacity " + std::to_string(bad));
    std::vector<std::uint8_t> resealed = bytes;
    testing_util::PatchU64(resealed, size_at + 8, bad);
    const Status status = RestoreOnePass(watchers.options, resealed);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  }
}

TEST(ChaosRecovery, EdgeListedThatIsNotSampledIsDataLoss) {
  // An edge list stores each edge's key, which a restore turns into the
  // edge's sampler slot. Vertex 0's first listed edge {0, 5} rewritten to
  // {0, 1000}, which no 40-vertex graph holds, is kDataLoss: the key has no
  // slot to name.
  OnePassWatchers watchers = OnePassWatcherMap();
  std::vector<std::uint8_t>& bad = watchers.bytes;
  const std::size_t first_edge_at = watchers.first_key_at + 4 + 2 * 8;
  ASSERT_EQ(testing_util::PeekU64(bad, first_edge_at), MakeEdgeKey(0, 5));
  testing_util::PatchU64(bad, first_edge_at, MakeEdgeKey(0, 1000));
  const Status status = RestoreOnePass(watchers.options, bad);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.ToString().find("unsampled"), std::string::npos)
      << status.ToString();
}

TEST(ChaosRecovery, OnePassFourCycleWedgeWhoseEdgeIsNotSampledIsDataLoss) {
  // A live wedge names its edges' sampler slots, found by key on restore.
  // The first live wedge's end_hi rewritten to vertex 1000 names the edge
  // {center, 1000}, which is not sampled: kDataLoss, where a resumed run
  // would read the payload of a slot no edge holds. Walk the layout:
  // options and counters, the edge sample's members (each with its wedge
  // slots) and heap, the edge lists, then the wedge slab.
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream(&g, 7);
  core::OnePassFourCycleOptions options;
  options.sample_size = 30;
  options.seed = 3;
  core::OnePassFourCycleCounter algo(options);
  ASSERT_TRUE(RunPassesChecked(stream, &algo).ok());
  snapshot::SnapshotWriter w;
  algo.Serialize(w);
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  StatusOr<snapshot::SnapshotReader> r = snapshot::SnapshotReader::Open(bytes);
  ASSERT_TRUE(r.ok());
  const auto skip_u64s = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) r->ReadU64();
  };
  skip_u64s(5);
  const std::uint64_t members = r->ReadU64();
  for (std::uint64_t i = 0; i < members; ++i) {
    r->ReadU64();
    r->ReadBool();
    const std::uint64_t wedges = r->ReadU64();
    r->ReadU64();
    for (std::uint64_t j = 0; j < wedges; ++j) r->ReadU32();
  }
  skip_u64s(r->ReadU64() + 1);  // the heap: size, capacity, keys
  r->ReadU64();
  const std::uint64_t vertices = r->ReadU64();
  for (std::uint64_t i = 0; i < vertices; ++i) {
    r->ReadU32();
    const std::uint64_t edges = r->ReadU64();
    r->ReadU64();
    skip_u64s(edges);
  }
  r->ReadU64();
  r->ReadU64();
  while (!r->ReadBool()) {
  }
  r->ReadU32();  // center
  r->ReadU32();  // end_lo
  const std::size_t end_hi_at = bytes.size() - 4 - r->remaining();
  ASSERT_TRUE(r->status().ok());
  ASSERT_LT(testing_util::PeekU64(bytes, end_hi_at) & 0xffffffffu, 40u);
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[end_hi_at + i] = static_cast<std::uint8_t>(1000u >> (8 * i));
  }
  testing_util::Reseal(bytes);
  StatusOr<snapshot::SnapshotReader> reader =
      snapshot::SnapshotReader::Open(bytes);
  ASSERT_TRUE(reader.ok());
  core::OnePassFourCycleCounter resumed(options);
  const Status status = resumed.Restore(*reader);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_NE(status.ToString().find("not both sampled"), std::string::npos)
      << status.ToString();
}

TEST(ChaosRecovery, TwoPassTriangleWatchSlotPastTheSlabIsDataLoss) {
  // The layout ends with the candidates' vertex watch lists.
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream(&g, 7);
  core::TwoPassTriangleOptions options;
  options.sample_size = 30;
  options.seed = 3;
  core::TwoPassTriangleCounter algo(options);
  ASSERT_TRUE(RunPassesChecked(stream, &algo).ok());
  ASSERT_GT(algo.result().pairs_live, 0u);
  const Status status = RestoreWithSlotPastTheSlab(algo, options, 4);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

TEST(ChaosRecovery, WedgeSamplingWatchSlotPastTheReservoirIsDataLoss) {
  // The closure watch lists, then the current list's capacity (a u64).
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream(&g, 7);
  core::WedgeSamplingOptions options;
  options.reservoir_size = 12;
  options.seed = 3;
  core::WedgeSamplingTriangleCounter algo(options);
  ASSERT_TRUE(RunPassesChecked(stream, &algo).ok());
  ASSERT_GT(algo.result().sampled, 0u);
  const Status status = RestoreWithSlotPastTheSlab(algo, options, 8 + 4);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

TEST(ChaosRecovery, TwoPassFourCycleWatchSlotPastQIsDataLoss) {
  // The wedge watch lists, then the found cycles: a bucket count, a count
  // and one u64 per cycle.
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream(&g, 7);
  core::FourCycleOptions options;
  options.sample_size = 30;
  options.seed = 3;
  core::TwoPassFourCycleCounter algo(options);
  ASSERT_TRUE(RunPassesChecked(stream, &algo).ok());
  const core::FourCycleResult result = algo.result();
  ASSERT_GT(result.wedge_count, 0u);
  const Status status = RestoreWithSlotPastTheSlab(
      algo, options, 8 * result.distinct_cycles + 2 * 8 + 4);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

TEST(ChaosRecovery, RepeatedEdgeKeyIsDataLoss) {
  // Through version 6 the exact counter stored an edge map, keys ascending.
  // A version-6 mid-pass checkpoint whose third key is rewritten to the
  // second, resealed under a valid CRC, must fail the resume with
  // kDataLoss. Without the Loader's key-order check the repeated key
  // overwrote the second edge's state and dropped the third edge, and the
  // resume finished OK one triangle short.
  const Graph g = gen::ErdosRenyiGnp(40, 0.3, 7);
  const AdjacencyListStream stream(&g, 7);
  core::ExactStreamTriangleCounter algo;
  std::vector<std::uint8_t> checkpoint;
  std::vector<std::uint8_t> section;  // the counter alone, same boundary
  auto keep = [&](int pass, std::size_t lists,
                  std::vector<std::uint8_t> bytes) {
    if (pass != 0 || lists != 20) return;
    checkpoint = std::move(bytes);
    snapshot::SnapshotWriter w;
    algo.Serialize(w);
    section = std::move(w).Finish();
  };
  ASSERT_TRUE(RunPassesChecked(stream, &algo, {.on_checkpoint = keep}).ok());
  ASSERT_FALSE(checkpoint.empty());

  // The counter's section ends the checkpoint. In its place goes the
  // version-6 layout of the same boundary: five words (pair count,
  // triangles, scratch capacity, bucket count, entry count), then each
  // entry's key and copy count.
  const std::size_t section_bytes = section.size() - snapshot::kEnvelopeBytes;
  const std::size_t start = checkpoint.size() - 4 - section_bytes;
  ASSERT_TRUE(std::equal(section.begin() + 20, section.end() - 4,
                         checkpoint.begin() + start));
  const std::vector<std::uint8_t> version6 =
      testing_util::ExactStreamVersion6(g, stream.list_order(), 20);
  std::vector<std::uint8_t> good(checkpoint.begin(),
                                 checkpoint.begin() + start);
  good.insert(good.end(), version6.begin() + 20, version6.end());
  testing_util::PatchU64(good, 12, good.size() - snapshot::kEnvelopeBytes);
  testing_util::Restamp(good, 6);
  core::ExactStreamTriangleCounter converted;
  StatusOr<RunReport> resumed_good =
      RunPassesChecked(stream, &converted, {.resume_from = good});
  ASSERT_TRUE(resumed_good.ok()) << resumed_good.status().ToString();
  EXPECT_EQ(converted.triangles(), algo.triangles());

  std::vector<std::uint8_t> bad = good;
  ASSERT_GE(testing_util::PeekU64(bad, start + 32), 3u);
  const std::size_t second_at = start + 40 + 9;
  const std::size_t third_at = start + 40 + 18;
  ASSERT_EQ(testing_util::PeekU64(bad, second_at), 0x5u);
  ASSERT_EQ(testing_util::PeekU64(bad, third_at), 0xbu);
  testing_util::PatchU64(bad, third_at, 0x5);
  testing_util::Reseal(bad);

  core::ExactStreamTriangleCounter resumed;
  StatusOr<RunReport> result =
      RunPassesChecked(stream, &resumed, {.resume_from = bad});
  ASSERT_FALSE(result.ok()) << "resumed to " << resumed.triangles();
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
      << result.status().ToString();
}

// --- Both versions of the two-pass layout, on the golden run. ---

// The golden two-pass run (golden_test.cc: G(16, 0.4), every seed 7) and
// its committed version-1 mid-run envelope.
class TwoPassVersionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const SnapshotEstimator& est : SnapshotEstimators(7)) {
      if (est.name == "two-pass-triangle") estimator_ = est;
    }
    ASSERT_TRUE(estimator_.make);
    std::unique_ptr<StreamAlgorithm> algo = estimator_.make();
    ASSERT_TRUE(RunPassesChecked(stream_, algo.get()).ok());
    digest_ = estimator_.digest(algo.get());
    std::ifstream in(std::string(CYCLESTREAM_GOLDEN_DIR) +
                         "/two-pass-triangle.snap",
                     std::ios::binary);
    version1_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    ASSERT_FALSE(version1_.empty());
  }

  // Resumes a fresh counter from `bytes` and returns the status code; a
  // resume that succeeds must reach the uninterrupted run's digest.
  StatusCode ResumeCode(const std::vector<std::uint8_t>& bytes) {
    std::unique_ptr<StreamAlgorithm> algo = estimator_.make();
    StatusOr<RunReport> result =
        RunPassesChecked(stream_, algo.get(), {.resume_from = bytes});
    if (result.ok()) {
      EXPECT_EQ(estimator_.digest(algo.get()), digest_);
    }
    return result.status().code();
  }

  // Envelope offset of the fixture's triangle-edge map (its bucket count),
  // which version 2 dropped. Walks the counter's section from its options;
  // the walk must end where the payload does.
  std::size_t Version1MapOffset() const {
    std::size_t at = OffsetAfter(version1_, [](snapshot::SnapshotWriter& w) {
      w.WriteU64(10);  // sample_size
      w.WriteU64(10);  // seed
      w.WriteBool(true);
    });
    auto u64 = [&] {
      const std::uint64_t value = testing_util::PeekU64(version1_, at);
      at += 8;
      return value;
    };
    // A list: its size, its capacity, then `bytes` per element.
    auto list = [&](std::size_t bytes) {
      const std::uint64_t size = u64();
      u64();
      at += size * bytes;
    };
    at += 8 + 4 + 8 + 8 + 1 + 1;  // pass, list, pairs, T', two flags
    for (std::uint64_t n = u64(); n > 0; --n) at += 8 + 4 + 8;  // S
    list(8);  // S's heap
    u64();    // edge watchers: buckets, then each vertex and its list
    for (std::uint64_t n = u64(); n > 0; --n) {
      at += 4;
      list(8);
    }
    u64();  // touched-edge scratch capacity
    for (std::uint64_t n = u64(); n > 0; --n) at += 8 + 4;  // Q
    list(8);  // Q's heap
    const std::uint64_t slots = u64();
    u64();
    for (std::uint64_t i = 0; i < slots; ++i) {
      if (version1_[at++] != 0) at += 3 * 4 + 3 * 8 + 1;  // a live entry
    }
    list(4);  // free slots
    const std::size_t map = at;
    u64();  // buckets, then each edge and its (slab index, slot) list
    for (std::uint64_t n = u64(); n > 0; --n) {
      at += 8;
      list(5);
    }
    u64();  // vertex subscriptions: buckets, then each vertex and its list
    for (std::uint64_t n = u64(); n > 0; --n) {
      at += 4;
      list(4);
    }
    u64();  // the map's scratch capacity
    EXPECT_EQ(at, version1_.size() - 4);
    return map;
  }

  const Graph graph_ = gen::ErdosRenyiGnp(16, 0.4, 7);
  const AdjacencyListStream stream_{&graph_, 7};
  SnapshotEstimator estimator_;
  std::string digest_;
  std::vector<std::uint8_t> version1_;
};

TEST_F(TwoPassVersionTest, EveryCheckpointReadAsVersion1IsDataLoss) {
  // A version-1 decoder looks for the triangle-edge map where version 2
  // keeps the vertex subscriptions; no checkpoint of the run, resealed as
  // version 1, may resume.
  std::vector<std::vector<std::uint8_t>> checkpoints;
  std::unique_ptr<StreamAlgorithm> algo = estimator_.make();
  auto collect = [&](int, std::size_t, std::vector<std::uint8_t> bytes) {
    checkpoints.push_back(std::move(bytes));
  };
  ASSERT_TRUE(
      RunPassesChecked(stream_, algo.get(), {.on_checkpoint = collect}).ok());
  ASSERT_EQ(checkpoints.size(), 32u);
  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    testing_util::Restamp(checkpoints[k], 1);
    EXPECT_EQ(ResumeCode(checkpoints[k]), StatusCode::kDataLoss)
        << "checkpoint " << k;
  }
}

TEST_F(TwoPassVersionTest, Version1FixtureReadAsVersion2IsDataLoss) {
  std::vector<std::uint8_t> bad = version1_;
  testing_util::Restamp(bad, 2);
  EXPECT_EQ(ResumeCode(bad), StatusCode::kDataLoss);
}

TEST_F(TwoPassVersionTest, Version1MapCountPastThePayloadIsDataLoss) {
  // The dropped map's entry count is checked against the payload like any
  // other: one more entry than the rest of the payload could hold.
  const std::size_t at = Version1MapOffset() + 8;
  std::vector<std::uint8_t> bad = version1_;
  const std::uint64_t past = (bad.size() - 4 - (at + 8)) / 8 + 1;
  testing_util::PatchU64(bad, at, past);
  testing_util::Reseal(bad);
  EXPECT_EQ(ResumeCode(bad), StatusCode::kDataLoss);
}

TEST_F(TwoPassVersionTest, Version1SubscriberCapacityIsNeverReserved) {
  // A CRC-valid envelope does not make a stored capacity sane. The dropped
  // map's capacities are read and discarded, so the first one at 2^40 (a
  // reservation of 8 TiB) still restores and reaches the digest.
  const std::size_t map = Version1MapOffset();
  ASSERT_GE(testing_util::PeekU64(version1_, map + 8), 1u);
  // The bucket count, the entry count, the first key and its list's size.
  const std::size_t capacity_at = map + 4 * 8;
  ASSERT_GE(testing_util::PeekU64(version1_, capacity_at),
            testing_util::PeekU64(version1_, capacity_at - 8));
  std::vector<std::uint8_t> big = version1_;
  testing_util::PatchU64(big, capacity_at, std::uint64_t{1} << 40);
  testing_util::Reseal(big);
  EXPECT_EQ(ResumeCode(big), StatusCode::kOk);
}

// --- Version 5's dropped touched-list capacities. ---

// Envelope offset of a version-4 checkpoint's touched-list capacity. The
// estimator's section is a checkpoint's last and the capacity its last
// field, except in the two-pass 4-cycle counter, whose found cycles follow
// it: a bucket count, then a count and that many keys.
std::size_t Version4TouchedCapacityOffset(
    const std::vector<std::uint8_t>& fixture, bool found_cycles_follow) {
  const std::size_t end = fixture.size() - 4;
  if (!found_cycles_follow) return end - 8;
  for (std::size_t count = 0; 8 * (count + 3) <= end; ++count) {
    if (testing_util::PeekU64(fixture, end - 8 * (count + 1)) == count) {
      return end - 8 * (count + 3);
    }
  }
  ADD_FAILURE() << "no found-cycle count before the payload's end";
  return end - 8;
}

TEST(ChaosRecovery, Version4TouchedCapacityIsNeverReserved) {
  // Through version 4, four estimators stored the capacity of the list of
  // items a list had touched; version 5 reads it and discards it. Each
  // one's committed version-4 fixture of the golden run, resealed with that
  // capacity at 2^40 (an 8 TiB reservation), resumes to the uninterrupted
  // run's digest.
  const Graph g = gen::ErdosRenyiGnp(16, 0.4, 7);
  const AdjacencyListStream stream(&g, 7);
  int checked = 0;
  for (const SnapshotEstimator& est : SnapshotEstimators(7)) {
    if (est.name != "one-pass-triangle" &&
        est.name != "triangle-distinguisher" &&
        est.name != "one-pass-four-cycle" &&
        est.name != "two-pass-four-cycle") {
      continue;
    }
    SCOPED_TRACE(est.name);
    ++checked;
    std::unique_ptr<StreamAlgorithm> algo = est.make();
    ASSERT_TRUE(RunPassesChecked(stream, algo.get()).ok());
    const std::string digest = est.digest(algo.get());
    std::ifstream in(std::string(CYCLESTREAM_GOLDEN_DIR) + "/v4/" +
                         est.name + ".snap",
                     std::ios::binary);
    const std::vector<std::uint8_t> fixture(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    ASSERT_FALSE(fixture.empty());
    ASSERT_EQ(fixture[8], 4);  // the version word
    const std::size_t at = Version4TouchedCapacityOffset(
        fixture, est.name == "two-pass-four-cycle");
    // A list of a 16-vertex graph touches few items.
    ASSERT_LE(testing_util::PeekU64(fixture, at), 64u);
    std::vector<std::uint8_t> big = fixture;
    testing_util::PatchU64(big, at, std::uint64_t{1} << 40);
    testing_util::Reseal(big);
    for (const std::vector<std::uint8_t>& bytes : {fixture, big}) {
      std::unique_ptr<StreamAlgorithm> resumed = est.make();
      StatusOr<RunReport> result =
          RunPassesChecked(stream, resumed.get(), {.resume_from = bytes});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(est.digest(resumed.get()), digest);
    }
  }
  EXPECT_EQ(checked, 4);
}

TEST(ChaosRecovery, SamplerWithMoreMembersThanItsCapacityIsDataLoss) {
  // The committed version-5 fixture of the one-pass triangle counter
  // (sample size 9, seed 8), resealed with two more sampled edges than the
  // sample holds. Its section opens with those two options, then two
  // counters and a flag; the sampler follows: a member count, then per
  // member its key, a flag and a detection count (17 bytes).
  const Graph g = gen::ErdosRenyiGnp(16, 0.4, 7);
  const AdjacencyListStream stream(&g, 7);
  const SnapshotEstimator est = SnapshotEstimators(7)[1];
  ASSERT_EQ(est.name, "one-pass-triangle");
  std::ifstream in(std::string(CYCLESTREAM_GOLDEN_DIR) +
                       "/v5/one-pass-triangle.snap",
                   std::ios::binary);
  const std::vector<std::uint8_t> fixture(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_FALSE(fixture.empty());
  constexpr std::uint64_t kCapacity = 9;
  std::vector<std::uint8_t> options(16);
  testing_util::PatchU64(options, 0, kCapacity);
  testing_util::PatchU64(options, 8, 8);
  const auto section =
      std::search(fixture.begin(), fixture.end(), options.begin(),
                  options.end());
  ASSERT_NE(section, fixture.end());
  ASSERT_EQ(std::search(section + 1, fixture.end(), options.begin(),
                        options.end()),
            fixture.end());
  const std::size_t count_at = (section - fixture.begin()) + 4 * 8 + 1;
  const std::uint64_t count = testing_util::PeekU64(fixture, count_at);
  ASSERT_LE(count, kCapacity);
  constexpr std::size_t kMemberBytes = 17;
  const std::size_t end = count_at + 8 + count * kMemberBytes;
  const std::uint64_t last_key =
      testing_util::PeekU64(fixture, end - kMemberBytes);

  // Members above the last key keep the keys ascending.
  std::vector<std::uint8_t> extra;
  for (std::uint64_t added = 1; added <= kCapacity + 2 - count; ++added) {
    std::vector<std::uint8_t> member(kMemberBytes, 0);
    testing_util::PatchU64(member, 0, last_key + added);
    extra.insert(extra.end(), member.begin(), member.end());
  }
  std::vector<std::uint8_t> big = fixture;
  big.insert(big.begin() + end, extra.begin(), extra.end());
  testing_util::PatchU64(big, count_at, kCapacity + 2);
  // The envelope's payload length, after the magic and the version.
  testing_util::PatchU64(big, 12,
                         testing_util::PeekU64(big, 12) + extra.size());
  testing_util::Reseal(big);

  std::unique_ptr<StreamAlgorithm> intact = est.make();
  EXPECT_TRUE(
      RunPassesChecked(stream, intact.get(), {.resume_from = fixture}).ok());
  std::unique_ptr<StreamAlgorithm> resumed = est.make();
  StatusOr<RunReport> result =
      RunPassesChecked(stream, resumed.get(), {.resume_from = big});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
      << result.status().ToString();
}

TEST(ChaosRecovery, SnapshotPayloadTracksAuditedBytes) {
  // The snapshot is the algorithm's state made literal: its payload must be
  // on the order of the allocator-audited live bytes, not wildly above.
  Graph g = gen::ErdosRenyiGnp(24, 0.3, 8);
  AdjacencyListStream stream(&g, 8);
  core::TwoPassTriangleOptions options;
  options.sample_size = 16;
  options.seed = 29;
  core::TwoPassTriangleCounter algo(options);
  ASSERT_TRUE(RunPassesChecked(stream, &algo).ok());

  snapshot::SnapshotWriter w;
  algo.Serialize(w);
  const std::size_t payload = w.payload_size();
  const std::size_t audited = algo.memory_domain()->live_bytes();
  EXPECT_GT(payload, 0u);
  // Serialized state never stores more than the live containers plus a
  // bounded bookkeeping overhead (options header, counters, length
  // prefixes); allow 2x + 4KiB of slack either way.
  EXPECT_LT(payload, 2 * audited + 4096);
}

}  // namespace
}  // namespace stream
}  // namespace cyclestream
