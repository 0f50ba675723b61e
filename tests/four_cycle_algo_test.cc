#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/four_cycle.h"
#include "exact/four_cycle.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "test_util.h"

namespace cyclestream {
namespace core {
namespace {

using testing_util::RunOn;

FourCycleResult RunAlgo(const Graph& g, std::size_t sample_size,
                    std::uint64_t algo_seed, std::uint64_t stream_seed) {
  FourCycleOptions options;
  options.sample_size = sample_size;
  options.seed = algo_seed;
  TwoPassFourCycleCounter counter(options);
  RunOn(g, &counter, stream_seed);
  return counter.result();
}

TEST(FourCycleAlgo, ExactWhenSampleCoversGraph) {
  std::vector<Graph> graphs;
  graphs.push_back(gen::Complete(7));
  graphs.push_back(gen::CompleteBipartite(4, 5));
  graphs.push_back(gen::ErdosRenyiGnp(35, 0.3, 1));
  graphs.push_back(gen::CycleGraph(4));
  graphs.push_back(gen::Petersen());  // zero 4-cycles
  for (const Graph& g : graphs) {
    const double t = static_cast<double>(exact::CountFourCycles(g));
    for (std::uint64_t stream_seed : {1, 2, 3}) {
      FourCycleResult res = RunAlgo(g, g.num_edges() + 3, 11, stream_seed);
      EXPECT_DOUBLE_EQ(res.estimate, t) << "stream_seed " << stream_seed;
      EXPECT_DOUBLE_EQ(res.multiplicity_estimate, t);
      EXPECT_EQ(res.distinct_cycles, static_cast<std::uint64_t>(t));
      EXPECT_EQ(res.wedge_incidences, 4 * static_cast<std::uint64_t>(t));
    }
  }
}

TEST(FourCycleAlgo, WedgeCountsAreExactTw) {
  // Full sample: per construction every wedge's tally equals its exact T_w.
  Graph g = gen::CompleteBipartite(3, 4);
  FourCycleResult res = RunAlgo(g, g.num_edges() + 1, 3, 5);
  exact::FourCycleCounts counts = exact::CountFourCyclesDetailed(g);
  EXPECT_EQ(res.wedge_incidences,
            4 * counts.total);
  // Wedge set = all wedges of the graph.
  EXPECT_EQ(res.wedge_count, g.WedgeCount());
}

TEST(FourCycleAlgo, MultiplicityEstimatorUnbiased) {
  gen::PlantedBackground bg{.stars = 4, .star_degree = 20};
  Graph g = gen::PlantedDisjointFourCycles(120, bg);
  std::vector<double> estimates;
  for (int trial = 0; trial < 250; ++trial) {
    estimates.push_back(
        RunAlgo(g, g.num_edges() / 3, 700 + trial, 9).multiplicity_estimate);
  }
  double sem = testing_util::StdDev(estimates) / std::sqrt(250.0);
  // k² uses m(m-1)/(s(s-1)) which matches the pairwise inclusion
  // probability, so the estimator is unbiased up to that exact correction.
  EXPECT_NEAR(testing_util::Mean(estimates), 120.0, 5 * sem + 2.0);
}

TEST(FourCycleAlgo, ConstantFactorAtPaperSampleSize) {
  // m' = C * m / T^{3/8}; the paper's estimator (distinct cycles) must land
  // within a constant factor with good probability.
  gen::PlantedBackground bg{.stars = 10, .star_degree = 60};
  Graph g = gen::PlantedDisjointFourCycles(4096, bg);  // m ~ 17k, T = 4096
  const double t = 4096.0;
  const std::size_t sample = static_cast<std::size_t>(
      4.0 * g.num_edges() / std::pow(t, 3.0 / 8.0));
  int good = 0;
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    double est = RunAlgo(g, sample, 800 + trial, 21 + trial).estimate;
    if (est >= t / 8.0 && est <= 8.0 * t) ++good;
  }
  EXPECT_GE(good, 3 * kTrials / 4);
}

TEST(FourCycleAlgo, HeavyDiagonalStaysBounded) {
  // All cycles share the diagonal {0, 1}: overused wedges everywhere. The
  // distinct-count estimator must still produce an O(1) answer on average.
  gen::PlantedBackground bg{.stars = 6, .star_degree = 40};
  Graph g = gen::PlantedHeavyDiagonalFourCycles(200, bg);
  const double t = 200.0 * 199.0 / 2.0;
  std::vector<double> estimates;
  for (int trial = 0; trial < 50; ++trial) {
    estimates.push_back(RunAlgo(g, g.num_edges() / 3, 950 + trial, 17).estimate);
  }
  double mean = testing_util::Mean(estimates);
  EXPECT_GT(mean, t / 10.0);
  EXPECT_LT(mean, 10.0 * t);
}

TEST(FourCycleAlgo, ZeroCycleGraphsEstimateZero) {
  Graph g = gen::Petersen();
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_DOUBLE_EQ(RunAlgo(g, 8, seed, seed).estimate, 0.0);
  }
}

TEST(FourCycleAlgo, WedgeCapReported) {
  Graph g = gen::Star(40);  // a full sample has C(40,2) wedges
  FourCycleOptions options;
  options.sample_size = g.num_edges();
  options.max_wedges = 10;
  options.seed = 2;
  TwoPassFourCycleCounter counter(options);
  RunOn(g, &counter, 3);
  FourCycleResult res = counter.result();
  EXPECT_TRUE(res.wedge_cap_hit);
  EXPECT_EQ(res.wedge_count, 10u);
}

TEST(FourCycleAlgo, SpaceScalesWithSampleSize) {
  Graph g = gen::ErdosRenyiGnp(600, 0.05, 2);
  auto peak = [&](std::size_t m_prime) {
    FourCycleOptions options;
    options.sample_size = m_prime;
    options.seed = 5;
    TwoPassFourCycleCounter counter(options);
    return RunOn(g, &counter, 9).reported_peak_bytes;
  };
  std::size_t s1 = peak(100);
  std::size_t s4 = peak(400);
  EXPECT_GT(s4, 2 * s1);
  EXPECT_LT(s4, 20 * s1);
}

TEST(FourCycleAlgo, TwoPassesAnyOrder) {
  FourCycleOptions options;
  options.sample_size = 4;
  TwoPassFourCycleCounter counter(options);
  EXPECT_EQ(counter.passes(), 2);
}

}  // namespace
}  // namespace core
}  // namespace cyclestream
