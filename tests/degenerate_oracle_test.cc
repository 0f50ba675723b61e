// Degenerate-oracle sweep: every estimator, given enough space to hold the
// whole input (m' >= m, and for Q-bounded estimators enough candidate slots
// that nothing is ever evicted) and copies = 1, must return the exact cycle
// count — on every generator family and several seeds. This pins the
// "degenerates to exact" contracts the headers promise and guards the
// estimator plumbing against silent bias regressions.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/arbitrary_triangle.h"
#include "core/four_cycle.h"
#include "core/median.h"
#include "core/one_pass_four_cycle.h"
#include "core/one_pass_triangle.h"
#include "core/random_order_triangle.h"
#include "core/triangle_distinguisher.h"
#include "core/two_pass_triangle.h"
#include "core/wedge_sampling_triangle.h"
#include "exact/four_cycle.h"
#include "exact/triangle.h"
#include "gen/barabasi_albert.h"
#include "gen/chung_lu.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "gen/projective_plane.h"
#include <gtest/gtest.h>
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "test_util.h"

namespace cyclestream {
namespace {

struct OracleCase {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

// Every generator family in gen/, kept small enough that exact counting and
// full-storage streaming stay fast. Seeded generators consume the seed;
// fixed constructions vary their size with it so each instantiation still
// differs.
const OracleCase kCases[] = {
    {"ErdosRenyiGnp",
     [](std::uint64_t s) { return gen::ErdosRenyiGnp(60, 0.12, s); }},
    {"ErdosRenyiGnm",
     [](std::uint64_t s) { return gen::ErdosRenyiGnm(60, 220, s); }},
    {"ChungLuPowerLaw",
     [](std::uint64_t s) { return gen::ChungLuPowerLaw(80, 6.0, 2.3, s); }},
    {"BarabasiAlbert",
     [](std::uint64_t s) { return gen::BarabasiAlbert(70, 3, s); }},
    {"PlantedDisjointTriangles",
     [](std::uint64_t s) {
       return gen::PlantedDisjointTriangles(
           10 + s, gen::PlantedBackground{.stars = 3, .star_degree = 8});
     }},
    {"PlantedHeavyEdgeTriangles",
     [](std::uint64_t s) {
       return gen::PlantedHeavyEdgeTriangles(
           12 + s, gen::PlantedBackground{.stars = 3, .star_degree = 8});
     }},
    {"PlantedSharedVertexTriangles",
     [](std::uint64_t s) {
       return gen::PlantedSharedVertexTriangles(
           12 + s, gen::PlantedBackground{.stars = 3, .star_degree = 8});
     }},
    {"PlantedClique",
     [](std::uint64_t s) {
       return gen::PlantedClique(
           8 + s, gen::PlantedBackground{.stars = 3, .star_degree = 8});
     }},
    {"PlantedBookForest",
     [](std::uint64_t s) {
       return gen::PlantedBookForest(
           4 + s, 5, gen::PlantedBackground{.stars = 3, .star_degree = 8});
     }},
    {"PlantedDisjointFourCycles",
     [](std::uint64_t s) {
       return gen::PlantedDisjointFourCycles(
           10 + s, gen::PlantedBackground{.stars = 3, .star_degree = 8});
     }},
    {"PlantedHeavyDiagonalFourCycles",
     [](std::uint64_t s) {
       return gen::PlantedHeavyDiagonalFourCycles(
           6 + s, gen::PlantedBackground{.stars = 3, .star_degree = 8});
     }},
    {"PlantedDisjointCycles",
     [](std::uint64_t s) {
       return gen::PlantedDisjointCycles(
           5, 8 + s, gen::PlantedBackground{.stars = 3, .star_degree = 8});
     }},
    {"ProjectivePlaneGraph",
     [](std::uint64_t s) { return gen::ProjectivePlaneGraph(s % 2 ? 5 : 7); }},
    {"Complete", [](std::uint64_t s) { return gen::Complete(8 + s); }},
    {"CompleteBipartite",
     [](std::uint64_t s) { return gen::CompleteBipartite(5 + s, 6); }},
    {"CycleGraph", [](std::uint64_t s) { return gen::CycleGraph(20 + s); }},
    {"PathGraph", [](std::uint64_t s) { return gen::PathGraph(15 + s); }},
    {"Star", [](std::uint64_t s) { return gen::Star(10 + s); }},
    {"Petersen", [](std::uint64_t) { return gen::Petersen(); }},
};

class DegenerateOracleTest
    : public ::testing::TestWithParam<std::tuple<OracleCase, std::uint64_t>> {
 protected:
  Graph MakeGraph() const {
    return std::get<0>(GetParam()).make(std::get<1>(GetParam()));
  }
  std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(DegenerateOracleTest, TwoPassTriangleExactAtFullSpace) {
  Graph g = MakeGraph();
  const std::uint64_t truth = exact::CountTriangles(g);
  stream::AdjacencyListStream s(&g, 7 + seed());
  // Q's capacity is a fixed multiple of sample_size; 3T candidate pairs can
  // coexist, so size past max(m, 3T) to guarantee no eviction.
  const std::size_t sample =
      std::max<std::size_t>(g.num_edges(),
                            3 * static_cast<std::size_t>(truth)) +
      8;
  core::AmplifiedEstimate out =
      core::EstimateTriangles(s, sample, /*copies=*/1, 100 + seed());
  EXPECT_EQ(out.estimate, static_cast<double>(truth));
}

TEST_P(DegenerateOracleTest, OnePassTriangleExactAtFullSpace) {
  Graph g = MakeGraph();
  const std::uint64_t truth = exact::CountTriangles(g);
  stream::AdjacencyListStream s(&g, 11 + seed());
  const std::size_t sample = std::max<std::size_t>(g.num_edges(), 1);
  core::AmplifiedEstimate out =
      core::EstimateTrianglesOnePass(s, sample, /*copies=*/1, 200 + seed());
  EXPECT_EQ(out.estimate, static_cast<double>(truth));
}

TEST_P(DegenerateOracleTest, WedgeSamplingExactAtFullReservoir) {
  Graph g = MakeGraph();
  const std::uint64_t truth = exact::CountTriangles(g);
  stream::AdjacencyListStream s(&g, 13 + seed());
  core::WedgeSamplingOptions options;
  options.reservoir_size =
      std::max<std::uint64_t>(g.WedgeCount(), 1);  // holds every wedge
  options.seed = 300 + seed();
  core::WedgeSamplingTriangleCounter counter(options);
  stream::RunPasses(s, &counter);
  // Exact up to FP rounding: the estimate is (closed/sampled) * P2 / 2, and
  // the division can cost an ULP even when the reservoir holds every wedge.
  EXPECT_DOUBLE_EQ(counter.Estimate(), static_cast<double>(truth));
}

TEST_P(DegenerateOracleTest, TwoPassFourCycleExactAtFullSpace) {
  Graph g = MakeGraph();
  const std::uint64_t truth = exact::CountFourCycles(g);
  stream::AdjacencyListStream s(&g, 17 + seed());
  const std::size_t sample = std::max<std::size_t>(g.num_edges(), 1);
  core::AmplifiedEstimate out =
      core::EstimateFourCycles(s, sample, /*copies=*/1, 400 + seed());
  EXPECT_EQ(out.estimate, static_cast<double>(truth));
}

TEST_P(DegenerateOracleTest, OnePassFourCycleExactAtFullSpace) {
  Graph g = MakeGraph();
  const std::uint64_t truth = exact::CountFourCycles(g);
  stream::AdjacencyListStream s(&g, 19 + seed());
  core::OnePassFourCycleOptions options;
  options.sample_size = std::max<std::size_t>(g.num_edges(), 1);
  options.seed = 500 + seed();
  core::OnePassFourCycleCounter counter(options);
  stream::RunPasses(s, &counter);
  EXPECT_EQ(counter.Estimate(), static_cast<double>(truth));
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, DegenerateOracleTest,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const ::testing::TestParamInfo<DegenerateOracleTest::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// The complete graph on four ids a service client may send. The all-ones
// id is the watch index's empty key, so its lists take the index's
// separate path.
constexpr VertexId kHostileIds[] = {0, VertexId{1} << 31, 0xfffffffe,
                                    0xffffffff};

// Delivers K4 on kHostileIds to `algo`, every pass: as adjacency lists
// (each edge from both ends) or, for `edges`, each edge once as a
// one-element list.
void FeedHostileK4(stream::StreamAlgorithm& algo, bool edges) {
  for (int pass = 0; pass < algo.passes(); ++pass) {
    algo.BeginPass(pass);
    for (int i = 0; i < 4; ++i) {
      const VertexId u = kHostileIds[i];
      if (!edges) algo.BeginList(u);
      for (int j = edges ? i + 1 : 0; j < 4; ++j) {
        if (j == i) continue;
        if (edges) algo.BeginList(u);
        algo.OnPair(u, kHostileIds[j]);
        if (edges) algo.EndList(u);
      }
      if (!edges) algo.EndList(u);
    }
    algo.EndPass(pass);
  }
}

// `algo`'s final state restored into `fresh`: the restore succeeds and
// checkpoints to the same bytes and meters the same space.
void ExpectRoundTrip(const stream::StreamAlgorithm& algo,
                     stream::StreamAlgorithm& fresh) {
  snapshot::SnapshotWriter w;
  algo.Serialize(w);
  const std::vector<std::uint8_t> bytes = std::move(w).Finish();
  StatusOr<snapshot::SnapshotReader> reader =
      snapshot::SnapshotReader::Open(bytes);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(fresh.Restore(*reader).ok());
  snapshot::SnapshotWriter again;
  fresh.Serialize(again);
  EXPECT_EQ(std::move(again).Finish(), bytes);
  EXPECT_EQ(fresh.CurrentSpaceBytes(), algo.CurrentSpaceBytes());
}

TEST(HostileIds, EveryWatchIndexEstimatorIsExactAtFullSpace) {
  // K4 holds 4 triangles and 3 four-cycles. Each estimator with a watch
  // index keyed by vertex, given room for every edge, counts them exactly
  // on these ids, where the all-ones id used to abort the process, sizes
  // nothing by an id, and (each that checkpoints) checkpoints and restores
  // the all-ones id's list.
  constexpr std::size_t kSpaceBound = 16384;
  {
    core::OnePassTriangleOptions options;
    options.sample_size = 6;
    core::OnePassTriangleCounter algo(options), fresh(options);
    FeedHostileK4(algo, false);
    EXPECT_EQ(algo.Estimate(), 4.0);
    EXPECT_LE(algo.CurrentSpaceBytes(), kSpaceBound);
    ExpectRoundTrip(algo, fresh);
  }
  {
    core::TriangleDistinguisherOptions options;
    options.sample_size = 6;
    core::TriangleDistinguisher algo(options), fresh(options);
    FeedHostileK4(algo, false);
    EXPECT_TRUE(algo.result().found_triangle);
    EXPECT_LE(algo.CurrentSpaceBytes(), kSpaceBound);
    ExpectRoundTrip(algo, fresh);
  }
  {
    core::TwoPassTriangleOptions options;
    options.sample_size = 20;  // m' >= max(m, 3T) + 8: Q never evicts
    core::TwoPassTriangleCounter algo(options), fresh(options);
    FeedHostileK4(algo, false);
    EXPECT_EQ(algo.Estimate(), 4.0);
    EXPECT_LE(algo.CurrentSpaceBytes(), kSpaceBound);
    ExpectRoundTrip(algo, fresh);
  }
  {
    core::OnePassFourCycleOptions options;
    options.sample_size = 6;
    core::OnePassFourCycleCounter algo(options), fresh(options);
    FeedHostileK4(algo, false);
    EXPECT_EQ(algo.Estimate(), 3.0);
    EXPECT_LE(algo.CurrentSpaceBytes(), kSpaceBound);
    ExpectRoundTrip(algo, fresh);
  }
  {
    core::FourCycleOptions options;
    options.sample_size = 6;
    core::TwoPassFourCycleCounter algo(options), fresh(options);
    FeedHostileK4(algo, false);
    EXPECT_EQ(algo.Estimate(), 3.0);
    EXPECT_LE(algo.CurrentSpaceBytes(), kSpaceBound);
    ExpectRoundTrip(algo, fresh);
  }
  {
    core::ArbitraryTriangleOptions options;
    options.sample_size = 6;
    core::ArbitraryOrderTriangleCounter algo(options);  // no checkpoint
    FeedHostileK4(algo, true);
    EXPECT_EQ(algo.Estimate(), 4.0);
    EXPECT_LE(algo.CurrentSpaceBytes(), kSpaceBound);
  }
  {
    // The whole stream fits in the prefix.
    core::RandomOrderTriangleOptions options;
    options.prefix_size = 6;
    core::RandomOrderTriangleCounter algo(options), fresh(options);
    FeedHostileK4(algo, true);
    EXPECT_EQ(algo.Estimate(), 4.0);
    EXPECT_LE(algo.CurrentSpaceBytes(), kSpaceBound);
    ExpectRoundTrip(algo, fresh);
  }
}

}  // namespace
}  // namespace cyclestream
