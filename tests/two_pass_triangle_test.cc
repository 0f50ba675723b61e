#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_pass_triangle.h"
#include "exact/triangle.h"
#include "gen/chung_lu.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "test_util.h"

namespace cyclestream {
namespace core {
namespace {

using testing_util::Digest;
using testing_util::RunOn;

double RunEstimate(const Graph& g, std::size_t sample_size,
                   std::uint64_t algo_seed, std::uint64_t stream_seed) {
  TwoPassTriangleOptions options;
  options.sample_size = sample_size;
  options.seed = algo_seed;
  TwoPassTriangleCounter counter(options);
  RunOn(g, &counter, stream_seed);
  return counter.Estimate();
}

TEST(TwoPassTriangle, ExactWhenSampleCoversGraph) {
  // With m' >= m the algorithm degenerates to an exact count: S = E,
  // Q = all (edge, triangle) pairs, and each triangle has exactly one
  // lightest edge.
  std::vector<Graph> graphs;
  graphs.push_back(gen::Complete(8));
  graphs.push_back(testing_util::TwoTrianglesSharedEdge());
  graphs.push_back(gen::ErdosRenyiGnp(40, 0.3, 1));
  graphs.push_back(gen::CompleteBipartite(6, 6));  // zero triangles
  graphs.push_back(gen::Petersen());
  for (const Graph& g : graphs) {
    const double t = static_cast<double>(exact::CountTriangles(g));
    for (std::uint64_t stream_seed : {1, 2, 3}) {
      double est = RunEstimate(g, 10 * g.num_edges() + 10, 5, stream_seed);
      EXPECT_DOUBLE_EQ(est, t)
          << "m=" << g.num_edges() << " stream_seed=" << stream_seed;
    }
  }
}

class TwoPassExactSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TwoPassExactSweep, ExactOnRandomGraphsAnyOrder) {
  auto [graph_seed, stream_seed] = GetParam();
  Graph g = gen::ErdosRenyiGnp(60, 0.2, graph_seed);
  const double t = static_cast<double>(exact::CountTriangles(g));
  double est = RunEstimate(g, 2 * g.num_edges() + 1, 99, stream_seed);
  EXPECT_DOUBLE_EQ(est, t);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TwoPassExactSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(10, 20, 30)));

TEST(TwoPassTriangle, UnbiasedOverSamplingRandomness) {
  // Mean of many independent runs approaches T (Lemma 3.1).
  gen::PlantedBackground bg{.stars = 4, .star_degree = 25};
  Graph g = gen::PlantedDisjointTriangles(100, bg);
  const double t = 100.0;
  const std::uint64_t stream_seed = 7;
  std::vector<double> estimates;
  for (std::uint64_t s = 0; s < 300; ++s) {
    estimates.push_back(RunEstimate(g, g.num_edges() / 6, 1000 + s, stream_seed));
  }
  double mean = testing_util::Mean(estimates);
  double sem = testing_util::StdDev(estimates) / std::sqrt(300.0);
  EXPECT_NEAR(mean, t, 5 * sem + 1e-9);
}

TEST(TwoPassTriangle, ConcentratesAtPaperSampleSize) {
  // m' = C * m / T^{2/3} gives small relative error with high probability.
  gen::PlantedBackground bg{.stars = 10, .star_degree = 100};
  Graph g = gen::PlantedDisjointTriangles(1000, bg);  // m = 4000, T = 1000
  const double t = 1000.0;
  const std::size_t sample =
      static_cast<std::size_t>(8.0 * g.num_edges() / std::pow(t, 2.0 / 3.0));
  int good = 0;
  const int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    double est = RunEstimate(g, sample, 500 + trial, 11 + trial);
    if (std::abs(est - t) <= 0.5 * t) ++good;
  }
  EXPECT_GE(good, 3 * kTrials / 4);
}

TEST(TwoPassTriangle, HandlesHeavyEdgeGraph) {
  // The adversarial instance for naive estimators: all triangles share one
  // edge. The lightest-edge rule keeps the estimator concentrated.
  gen::PlantedBackground bg{.stars = 8, .star_degree = 50};
  Graph g = gen::PlantedHeavyEdgeTriangles(500, bg);  // T = 500
  const double t = 500.0;
  std::vector<double> estimates;
  for (int trial = 0; trial < 60; ++trial) {
    estimates.push_back(RunEstimate(g, g.num_edges() / 4, 900 + trial, 13));
  }
  // Concentration: relative std-dev bounded, mean near T.
  EXPECT_NEAR(testing_util::Mean(estimates), t, 0.25 * t);
  EXPECT_LT(testing_util::StdDev(estimates), 1.2 * t);
}

TEST(TwoPassTriangle, AblationNaiveEstimatorIsWildOnHeavyEdge) {
  // With the lightest-edge rule disabled the estimate collapses to
  // k * T'/3, which on the book graph is bimodal: ~2T/3 when the heavy edge
  // is missed, ~kT/3 when it is sampled. The rule-based estimator stays far
  // better concentrated on the identical runs.
  gen::PlantedBackground bg{.stars = 4, .star_degree = 50};
  const double t = 2000.0;
  Graph g = gen::PlantedHeavyEdgeTriangles(2000, bg);
  const std::size_t sample = g.num_edges() / 16;
  std::vector<double> naive, with_rule;
  for (int trial = 0; trial < 60; ++trial) {
    for (bool use_rule : {false, true}) {
      TwoPassTriangleOptions options;
      options.sample_size = sample;
      options.seed = 900 + trial;  // same seed: identical samples
      options.use_lightest_edge_rule = use_rule;
      TwoPassTriangleCounter counter(options);
      RunOn(g, &counter, 13);
      (use_rule ? with_rule : naive).push_back(counter.Estimate());
    }
  }
  // Some run caught the heavy edge and exploded.
  EXPECT_GT(*std::max_element(naive.begin(), naive.end()), 3 * t);
  // The lightest-edge rule cuts the spread by a large factor.
  EXPECT_GT(testing_util::StdDev(naive),
            1.5 * testing_util::StdDev(with_rule));
}

TEST(TwoPassTriangle, ZeroTriangleGraphsEstimateZero) {
  for (std::uint64_t seed : {1, 2, 3}) {
    Graph g = gen::CompleteBipartite(30, 30);
    double est = RunEstimate(g, g.num_edges() / 10, seed, seed);
    EXPECT_DOUBLE_EQ(est, 0.0);
  }
}

TEST(TwoPassTriangle, ResultDiagnosticsConsistent) {
  Graph g = gen::Complete(10);
  TwoPassTriangleOptions options;
  options.sample_size = 15;
  options.seed = 3;
  TwoPassTriangleCounter counter(options);
  RunOn(g, &counter, 21);
  TwoPassTriangleResult res = counter.result();
  EXPECT_EQ(res.edge_count, g.num_edges());
  EXPECT_EQ(res.edge_sample_size, 15u);
  EXPECT_DOUBLE_EQ(res.k, 45.0 / 15.0);
  EXPECT_LE(res.rho_hits, res.pair_sample_size);
  // Candidate pairs: Σ_{e in S} T(e) > 0 for K10 with any 15 edges.
  EXPECT_GT(res.candidate_pairs, 0u);
}

TEST(TwoPassTriangle, SpaceScalesWithSampleSizeNotGraph) {
  Graph small = gen::ErdosRenyiGnp(200, 0.1, 1);
  Graph large = gen::ErdosRenyiGnp(800, 0.05, 1);
  auto peak = [](const Graph& g, std::size_t m_prime) {
    TwoPassTriangleOptions options;
    options.sample_size = m_prime;
    options.seed = 5;
    TwoPassTriangleCounter counter(options);
    return RunOn(g, &counter, 9).reported_peak_bytes;
  };
  // Quadrupling the sample size should grow space ~4x on the same graph.
  std::size_t s1 = peak(large, 100);
  std::size_t s4 = peak(large, 400);
  EXPECT_GT(s4, 2 * s1);
  EXPECT_LT(s4, 10 * s1);
  // Same sample size on a 4x-larger graph should grow space far less than
  // the graph grew.
  std::size_t small_s = peak(small, 200);
  std::size_t large_s = peak(large, 200);
  EXPECT_LT(large_s, 3 * small_s);
}

// Theorem 3.7's results on a matrix of inputs, pinned bit for bit: five
// generators, seeds 1-3 (graph where it takes one, stream and estimator)
// and budgets m' = m/32, m/8 and m. Each line holds the hexfloat digest of
// every result() field. Golden.* pins one small graph; this table pins
// how the counter reaches its H statistics on inputs where Q overflows and
// on inputs where it does not.
// clang-format off
const char* const kPinnedMatrix[] = {
    "chung-lu seed 1 m/32 0x1.f496eb298938dp+13|14072|1662|439|439|878|1|132|0x1.006ff6ab71b68p+5|",
    "chung-lu seed 1 m/8 0x1.314e14aa91d41p+14|14072|7113|1759|1759|3518|1|604|0x1p+3|",
    "chung-lu seed 1 m/1 0x1.15c93dda738e8p+14|14072|54576|14072|14072|28144|1|4584|0x1p+0|",
    "chung-lu seed 2 m/32 0x1.ee38752a8ec5ap+13|14302|1410|446|446|892|1|156|0x1.0089c2024bc45p+5|",
    "chung-lu seed 2 m/8 0x1.1f682db255293p+14|14302|6689|1787|1787|3574|1|614|0x1.001b815c66927p+3|",
    "chung-lu seed 2 m/1 0x1.24011a624df88p+14|14302|56010|14302|14302|28604|1|4772|0x1p+0|",
    "chung-lu seed 3 m/32 0x1.0d8d39d2aee4fp+14|14037|1531|438|438|876|1|154|0x1.006231188c462p+5|",
    "chung-lu seed 3 m/8 0x1.1d1dd49058b24p+14|14037|7206|1754|1754|3508|1|555|0x1.00175a32ca94ep+3|",
    "chung-lu seed 3 m/1 0x1.12b79843d7f35p+14|14037|52023|14037|14037|28074|1|4744|0x1p+0|",
    "erdos-renyi seed 1 m/32 0x1.22cec909d2714p+12|4481|424|140|140|280|1|48|0x1.000ea0ea0ea0fp+5|",
    "erdos-renyi seed 1 m/8 0x1.f8f3b481913dbp+11|4481|1663|560|560|1120|1|170|0x1.000ea0ea0ea0fp+3|",
    "erdos-renyi seed 1 m/1 0x1.0ccfbd45a43fcp+12|4481|12987|4481|4481|8962|1|1484|0x1p+0|",
    "erdos-renyi seed 2 m/32 0x1.19d4f3882b243p+12|4467|424|139|139|278|1|46|0x1.0117f14424d5ap+5|",
    "erdos-renyi seed 2 m/8 0x1.3474cd7e9d215p+12|4467|1703|558|558|1116|1|202|0x1.002c0b02c0b03p+3|",
    "erdos-renyi seed 2 m/1 0x1.1888dab115d5cp+12|4467|13296|4467|4467|8934|1|1508|0x1p+0|",
    "erdos-renyi seed 3 m/32 0x1.e3f816cc6f326p+11|4445|377|138|138|276|1|44|0x1.01ae6076b981ep+5|",
    "erdos-renyi seed 3 m/8 0x1.0895fe368fd28p+12|4445|1544|555|555|1110|1|190|0x1.0049cd42e204ap+3|",
    "erdos-renyi seed 3 m/1 0x1.0aab72525b929p+12|4445|12858|4445|4445|8890|1|1475|0x1p+0|",
    "heavy-edge seed 1 m/32 0x1.8224924924925p+8|901|25|28|25|25|0|12|0x1.016db6db6db6ep+5|",
    "heavy-edge seed 1 m/8 0x1.daa2492492493p+8|901|105|112|105|105|0|59|0x1.016db6db6db6ep+3|",
    "heavy-edge seed 1 m/1 0x1.9p+8|901|1200|901|1200|1200|0|400|0x1p+0|",
    "heavy-edge seed 2 m/32 0x1.016db6db6db6ep+8|901|24|28|24|24|0|8|0x1.016db6db6db6ep+5|",
    "heavy-edge seed 2 m/8 0x1.31b2492492493p+8|901|96|112|96|96|0|38|0x1.016db6db6db6ep+3|",
    "heavy-edge seed 2 m/1 0x1.9p+8|901|1200|901|1200|1200|0|400|0x1p+0|",
    "heavy-edge seed 3 m/32 0x1.61f6db6db6db7p+8|901|26|28|26|26|0|11|0x1.016db6db6db6ep+5|",
    "heavy-edge seed 3 m/8 0x1.61f6db6db6db7p+8|901|99|112|99|99|0|44|0x1.016db6db6db6ep+3|",
    "heavy-edge seed 3 m/1 0x1.9p+8|901|1200|901|1200|1200|0|400|0x1p+0|",
    "disjoint seed 1 m/32 0x1.225294a5294a5p+8|1000|29|31|29|29|0|9|0x1.0210842108421p+5|",
    "disjoint seed 1 m/8 0x1.fp+7|1000|108|125|108|108|0|31|0x1p+3|",
    "disjoint seed 1 m/1 0x1.2cp+8|1000|900|1000|900|900|0|300|0x1p+0|",
    "disjoint seed 2 m/32 0x1.0210842108421p+8|1000|25|31|25|25|0|8|0x1.0210842108421p+5|",
    "disjoint seed 2 m/8 0x1.48p+8|1000|110|125|110|110|0|41|0x1p+3|",
    "disjoint seed 2 m/1 0x1.2cp+8|1000|900|1000|900|900|0|300|0x1p+0|",
    "disjoint seed 3 m/32 0x1.8318c6318c632p+8|1000|27|31|27|27|0|12|0x1.0210842108421p+5|",
    "disjoint seed 3 m/8 0x1.1p+8|1000|108|125|108|108|0|34|0x1p+3|",
    "disjoint seed 3 m/1 0x1.2cp+8|1000|900|1000|900|900|0|300|0x1p+0|",
    "clique seed 1 m/32 0x1.ae0a88f46959ap+12|880|950|27|27|54|1|6|0x1.04bda12f684bep+5|",
    "clique seed 1 m/8 0x1.32c37dac37dacp+13|880|3648|110|110|220|1|37|0x1p+3|",
    "clique seed 1 m/1 0x1.50d1745d1745dp+13|880|29640|880|880|1760|1|320|0x1p+0|",
    "clique seed 2 m/32 0x1.ae0a88f46959ap+12|880|950|27|27|54|1|6|0x1.04bda12f684bep+5|",
    "clique seed 2 m/8 0x1.a6d61bed61bedp+12|880|3876|110|110|220|1|24|0x1p+3|",
    "clique seed 2 m/1 0x1.2f22e8ba2e8bap+13|880|29640|880|880|1760|1|288|0x1p+0|",
    "clique seed 3 m/32 0x1.58086d905447ap+13|880|912|27|27|54|1|10|0x1.04bda12f684bep+5|",
    "clique seed 3 m/8 0x1.2a7904a7904a8p+13|880|3648|110|110|220|1|36|0x1p+3|",
    "clique seed 3 m/1 0x1.20668ba2e8ba3p+13|880|29640|880|880|1760|1|274|0x1p+0|",
};
// clang-format on

TEST(TwoPassTriangle, MatrixMatchesPinnedResults) {
  const gen::PlantedBackground bg{.stars = 4, .star_degree = 25};
  const std::pair<const char*, std::function<Graph(std::uint64_t)>> inputs[] = {
      {"chung-lu",
       [](std::uint64_t s) { return gen::ChungLuPowerLaw(2000, 16, 2.3, s); }},
      {"erdos-renyi",
       [](std::uint64_t s) { return gen::ErdosRenyiGnp(300, 0.1, s); }},
      {"heavy-edge",
       [&bg](std::uint64_t) { return gen::PlantedHeavyEdgeTriangles(400, bg); }},
      {"disjoint",
       [&bg](std::uint64_t) { return gen::PlantedDisjointTriangles(300, bg); }},
      {"clique", [&bg](std::uint64_t) { return gen::PlantedClique(40, bg); }},
  };
  std::vector<std::string> actual;
  bool overflowed[2] = {false, false};
  for (const auto& [name, make] : inputs) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = make(seed);
      for (const std::size_t divisor : {32, 8, 1}) {
        TwoPassTriangleOptions options;
        options.sample_size =
            std::max<std::size_t>(g.num_edges() / divisor, 1);
        options.seed = seed;
        TwoPassTriangleCounter counter(options);
        RunOn(g, &counter, seed);
        const TwoPassTriangleResult r = counter.result();
        overflowed[r.q_overflowed] = true;
        std::ostringstream line;
        line << name << " seed " << seed << " m/" << divisor << " "
             << Digest(r.estimate, r.edge_count, r.candidate_pairs,
                       r.edge_sample_size, r.pair_sample_size, r.pairs_live,
                       r.q_overflowed, r.rho_hits, r.k);
        actual.push_back(line.str());
      }
    }
  }
  std::ostringstream table;
  for (const std::string& line : actual) table << "    \"" << line << "\",\n";
  EXPECT_EQ(actual, std::vector<std::string>(std::begin(kPinnedMatrix),
                                             std::end(kPinnedMatrix)))
      << "actual table:\n" << table.str();
  EXPECT_TRUE(overflowed[0]);
  EXPECT_TRUE(overflowed[1]);
}

TEST(TwoPassTriangle, TakesTwoPasses) {
  TwoPassTriangleOptions options;
  options.sample_size = 4;
  TwoPassTriangleCounter counter(options);
  EXPECT_EQ(counter.passes(), 2);
}

TEST(TwoPassTriangle, SampleSizeOneStillRuns) {
  Graph g = gen::Complete(6);
  TwoPassTriangleOptions options;
  options.sample_size = 1;
  options.seed = 8;
  TwoPassTriangleCounter counter(options);
  RunOn(g, &counter, 2);
  EXPECT_GE(counter.Estimate(), 0.0);
}

}  // namespace
}  // namespace core
}  // namespace cyclestream
