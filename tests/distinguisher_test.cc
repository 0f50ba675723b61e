#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/triangle_distinguisher.h"
#include "exact/triangle.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "test_util.h"

namespace cyclestream {
namespace core {
namespace {

using testing_util::RunOn;

TriangleDistinguisherResult RunAlgo(const Graph& g, std::size_t sample_size,
                                std::uint64_t algo_seed,
                                std::uint64_t stream_seed) {
  TriangleDistinguisherOptions options;
  options.sample_size = sample_size;
  options.seed = algo_seed;
  TriangleDistinguisher d(options);
  RunOn(g, &d, stream_seed);
  return d.result();
}

TEST(Distinguisher, NeverFalsePositive) {
  // Triangle-free graphs can never report a triangle, at any sample size.
  std::vector<Graph> graphs;
  graphs.push_back(gen::CompleteBipartite(15, 15));
  graphs.push_back(gen::CycleGraph(20));
  graphs.push_back(gen::Petersen());
  graphs.push_back(gen::Star(30));
  for (const Graph& g : graphs) {
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
      auto res = RunAlgo(g, g.num_edges() / 2 + 1, seed, seed + 10);
      EXPECT_FALSE(res.found_triangle);
      EXPECT_EQ(res.incidences, 0u);
    }
  }
}

TEST(Distinguisher, AlwaysFindsWithFullSample) {
  Graph g = gen::Complete(7);
  for (std::uint64_t seed : {1, 2, 3}) {
    auto res = RunAlgo(g, g.num_edges(), seed, seed);
    EXPECT_TRUE(res.found_triangle);
    // Full sample: incidences = Σ_e T(e) = 3T.
    EXPECT_EQ(res.incidences, 3 * exact::CountTriangles(g));
    EXPECT_DOUBLE_EQ(res.naive_estimate,
                     static_cast<double>(exact::CountTriangles(g)));
  }
}

TEST(Distinguisher, PaperSampleSizeDetectsReliably) {
  // m' = C m / T^{2/3}: a graph with T triangles has >= T^{2/3} triangle
  // edges, so the sample hits one with constant probability; amplified over
  // trials the detection rate must be high.
  gen::PlantedBackground bg{.stars = 10, .star_degree = 60};
  Graph g = gen::PlantedDisjointTriangles(512, bg);  // T = 512, m = 2136
  const std::size_t sample = static_cast<std::size_t>(
      6.0 * g.num_edges() / std::pow(512.0, 2.0 / 3.0));
  int found = 0;
  for (int trial = 0; trial < 50; ++trial) {
    found += RunAlgo(g, sample, 100 + trial, 7).found_triangle;
  }
  EXPECT_GE(found, 45);
}

TEST(Distinguisher, IncidencesUnbiased) {
  gen::PlantedBackground bg{.stars = 2, .star_degree = 30};
  Graph g = gen::PlantedDisjointTriangles(100, bg);
  std::vector<double> estimates;
  for (int trial = 0; trial < 200; ++trial) {
    estimates.push_back(
        RunAlgo(g, g.num_edges() / 4, 300 + trial, 9).naive_estimate);
  }
  double sem = testing_util::StdDev(estimates) / std::sqrt(200.0);
  EXPECT_NEAR(testing_util::Mean(estimates), 100.0, 5 * sem + 1e-9);
}

TEST(Distinguisher, TwoPassesAnyOrder) {
  TriangleDistinguisherOptions options;
  options.sample_size = 4;
  TriangleDistinguisher d(options);
  EXPECT_EQ(d.passes(), 2);
}

}  // namespace
}  // namespace core
}  // namespace cyclestream
