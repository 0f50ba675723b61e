#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/one_pass_triangle.h"
#include "exact/triangle.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "test_util.h"

namespace cyclestream {
namespace core {
namespace {

using testing_util::RunOn;

double RunEstimate(const Graph& g, std::size_t sample_size,
                   std::uint64_t algo_seed, std::uint64_t stream_seed) {
  OnePassTriangleOptions options;
  options.sample_size = sample_size;
  options.seed = algo_seed;
  OnePassTriangleCounter counter(options);
  RunOn(g, &counter, stream_seed);
  return counter.Estimate();
}

TEST(OnePassTriangle, ExactWhenSampleCoversGraph) {
  std::vector<Graph> graphs;
  graphs.push_back(gen::Complete(8));
  graphs.push_back(testing_util::TwoTrianglesSharedEdge());
  graphs.push_back(gen::ErdosRenyiGnp(50, 0.25, 1));
  graphs.push_back(gen::Petersen());
  for (const Graph& g : graphs) {
    const double t = static_cast<double>(exact::CountTriangles(g));
    for (std::uint64_t stream_seed : {1, 2, 3, 4}) {
      double est = RunEstimate(g, g.num_edges() + 5, 7, stream_seed);
      EXPECT_DOUBLE_EQ(est, t) << "stream_seed " << stream_seed;
    }
  }
}

TEST(OnePassTriangle, UnbiasedOverSamplingRandomness) {
  gen::PlantedBackground bg{.stars = 4, .star_degree = 25};
  Graph g = gen::PlantedDisjointTriangles(150, bg);
  const std::uint64_t stream_seed = 5;
  std::vector<double> estimates;
  for (std::uint64_t s = 0; s < 300; ++s) {
    estimates.push_back(
        RunEstimate(g, g.num_edges() / 5, 2000 + s, stream_seed));
  }
  double sem = testing_util::StdDev(estimates) / std::sqrt(300.0);
  EXPECT_NEAR(testing_util::Mean(estimates), 150.0, 5 * sem + 1e-9);
}

TEST(OnePassTriangle, ConcentratesAtPaperSampleSize) {
  // m' = C * m / sqrt(T).
  gen::PlantedBackground bg{.stars = 10, .star_degree = 100};
  Graph g = gen::PlantedDisjointTriangles(900, bg);  // m = 3700, T = 900
  const double t = 900.0;
  const std::size_t sample =
      static_cast<std::size_t>(8.0 * g.num_edges() / std::sqrt(t));
  int good = 0;
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    double est = RunEstimate(g, sample, 600 + trial, 31 + trial);
    if (std::abs(est - t) <= 0.5 * t) ++good;
  }
  EXPECT_GE(good, 3 * kTrials / 4);
}

TEST(OnePassTriangle, SinglePassOnly) {
  OnePassTriangleOptions options;
  options.sample_size = 4;
  OnePassTriangleCounter counter(options);
  EXPECT_EQ(counter.passes(), 1);
}

TEST(OnePassTriangle, ZeroTriangles) {
  Graph g = gen::CompleteBipartite(20, 20);
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_DOUBLE_EQ(RunEstimate(g, g.num_edges() / 5, seed, seed), 0.0);
  }
}

TEST(OnePassTriangle, DetectionCountMatchesEarliestEdgeRule) {
  // With the full edge set, the number of raw detections equals T: each
  // triangle is counted exactly once, at its last list, via its earliest
  // edge.
  Graph g = gen::Complete(9);
  OnePassTriangleOptions options;
  options.sample_size = g.num_edges();
  options.seed = 17;
  OnePassTriangleCounter counter(options);
  RunOn(g, &counter, 23);
  EXPECT_EQ(counter.result().detections, exact::CountTriangles(g));
  EXPECT_EQ(counter.result().edge_count, g.num_edges());
}

TEST(OnePassTriangle, SpaceScalesWithSampleSize) {
  Graph g = gen::ErdosRenyiGnp(600, 0.05, 2);
  auto peak = [&](std::size_t m_prime) {
    OnePassTriangleOptions options;
    options.sample_size = m_prime;
    options.seed = 5;
    OnePassTriangleCounter counter(options);
    return RunOn(g, &counter, 9).reported_peak_bytes;
  };
  std::size_t s1 = peak(100);
  std::size_t s4 = peak(400);
  EXPECT_GT(s4, 2 * s1);
  EXPECT_LT(s4, 10 * s1);
}

}  // namespace
}  // namespace core
}  // namespace cyclestream
