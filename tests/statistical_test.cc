// Statistical harness for the estimators' unbiasedness claims, run through
// the TrialRunner so the pooled-trial fan-out is the same machinery the
// benches use.
//
// Each test pools >= 200 independent trials of an estimator on a fixed
// graph and checks the z-score of the sample mean against the exact count:
//   z = (mean - truth) / (stddev / sqrt(n)).
// For an unbiased estimator z is asymptotically N(0,1); |z| < 4.5 bounds
// the per-test false-failure rate at ~7e-6 while still catching any real
// bias beyond a small fraction of a standard error. Seeds are fixed, so
// failures are reproducible, and results are thread-count independent.

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/one_pass_triangle.h"
#include "core/random_order_triangle.h"
#include "core/two_pass_triangle.h"
#include "core/four_cycle.h"
#include "core/wedge_sampling_triangle.h"
#include "exact/four_cycle.h"
#include "exact/triangle.h"
#include "gen/planted.h"
#include <gtest/gtest.h>
#include "runtime/trial_runner.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "stream/random_order_stream.h"
#include "test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace cyclestream {
namespace {

constexpr int kTrials = 240;
constexpr double kMaxAbsZ = 4.5;

double ZScore(const std::vector<double>& estimates, double truth) {
  const double mean = testing_util::Mean(estimates);
  const double sd = testing_util::StdDev(estimates);
  EXPECT_GT(sd, 0.0) << "degenerate sample; z-score undefined";
  return (mean - truth) /
         (sd / std::sqrt(static_cast<double>(estimates.size())));
}

// One shared runner: 4 threads exercises the parallel fan-out in every test
// (results are identical to a sequential run by the determinism contract).
runtime::TrialRunner& Runner() {
  static runtime::TrialRunner* runner = new runtime::TrialRunner(4);
  return *runner;
}

template <typename Counter, typename Options>
std::vector<double> PooledEstimates(const stream::AdjacencyListStream& s,
                                    Options options,
                                    std::uint64_t base_seed) {
  return runtime::TrialRunner::Estimates(Runner().Run(
      kTrials, base_seed, [&](std::size_t, std::uint64_t seed) {
        Options local = options;  // per-trial copy; no shared mutation
        local.seed = seed;
        Counter counter(local);
        stream::RunPasses(s, &counter);
        return runtime::TrialResult{.estimate = counter.Estimate()};
      }));
}

TEST(StatisticalTest, OnePassTriangleCounterIsUnbiased) {
  gen::PlantedBackground bg{.stars = 6, .star_degree = 40};
  Graph g = gen::PlantedDisjointTriangles(400, bg);
  const double truth = static_cast<double>(exact::CountTriangles(g));
  stream::AdjacencyListStream s(&g, 11);
  core::OnePassTriangleOptions options;
  options.sample_size = g.num_edges() / 8;
  std::vector<double> estimates =
      PooledEstimates<core::OnePassTriangleCounter>(s, options, 1001);
  EXPECT_LT(std::abs(ZScore(estimates, truth)), kMaxAbsZ);
}

TEST(StatisticalTest, WedgeSamplingTriangleCounterIsUnbiased) {
  gen::PlantedBackground bg{.stars = 6, .star_degree = 20};
  Graph g = gen::PlantedSharedVertexTriangles(300, bg);
  const double truth = static_cast<double>(exact::CountTriangles(g));
  stream::AdjacencyListStream s(&g, 17);
  core::WedgeSamplingOptions options;
  options.reservoir_size = 400;
  std::vector<double> estimates =
      PooledEstimates<core::WedgeSamplingTriangleCounter>(s, options, 2002);
  EXPECT_LT(std::abs(ZScore(estimates, truth)), kMaxAbsZ);
}

// The q-quantile of chi-square with `df` degrees of freedom, where z is the
// standard normal q-quantile (Wilson–Hilferty; within a fraction of a
// percent at df in the hundreds).
double ChiSquareQuantile(double df, double z) {
  const double a = 2.0 / (9.0 * df);
  const double c = 1.0 - a + z * std::sqrt(a);
  return df * c * c * c;
}

// The final reservoir is a uniform m'-subset of the P2 wedges, and exactly
// 2T of the P2 can close: a triangle's wedge closes unless its centre's
// list is the last of the three. So the closed count is hypergeometric,
// m' draws from P2 items with 2T successes, under any stream order: mean
// m'p and variance m'p(1-p)(P2-m')/(P2-1), p = 2T/P2. This holds for any
// sampler that keeps a uniform subset, whatever its draws, so it is the
// check on the law where a change of sampler moves every digest. The mean
// gets the suite's z-bound, the sample variance a two-sided chi-square
// interval at the same tail. The clique's closable wedges sit early in the
// stream (the last clique list has none), so a sampler that favours early
// or late wedges moves the mean; at m' = P2/2 a sampler that drew with
// replacement would show about twice the variance.
TEST(StatisticalTest, WedgeSamplingClosedCountIsHypergeometric) {
  constexpr int kSeeds = 400;
  gen::PlantedBackground bg{.stars = 6, .star_degree = 40};
  Graph g = gen::PlantedClique(24, bg);
  const double p2 = static_cast<double>(g.WedgeCount());
  const double p = 2.0 * static_cast<double>(exact::CountTriangles(g)) / p2;
  stream::AdjacencyListStream s(&g, 41);
  core::WedgeSamplingOptions options;
  options.reservoir_size = g.WedgeCount() / 2;
  const double k = static_cast<double>(options.reservoir_size);
  const std::vector<double> closed = runtime::TrialRunner::Estimates(
      Runner().Run(kSeeds, 7007, [&](std::size_t, std::uint64_t seed) {
        core::WedgeSamplingOptions local = options;
        local.seed = seed;
        core::WedgeSamplingTriangleCounter counter(local);
        stream::RunPasses(s, &counter);
        return runtime::TrialResult{
            .estimate = static_cast<double>(counter.result().closed)};
      }));
  const double mean = k * p;
  const double variance = k * p * (1.0 - p) * (p2 - k) / (p2 - 1.0);
  const double n = static_cast<double>(closed.size());
  const double z =
      (testing_util::Mean(closed) - mean) / std::sqrt(variance / n);
  EXPECT_LT(std::abs(z), kMaxAbsZ);
  const double sd = testing_util::StdDev(closed);
  const double statistic = (n - 1.0) * sd * sd / variance;
  EXPECT_GT(statistic, ChiSquareQuantile(n - 1.0, -kMaxAbsZ));
  EXPECT_LT(statistic, ChiSquareQuantile(n - 1.0, kMaxAbsZ));
}

// After N offered wedges with the reservoir full, the skip state's W is the
// k-th smallest of N uniform keys, Beta(k, N-k+1), and the wedges skipped
// before the next admission are geometric in W, with mean (N-k+1)/(k-1)
// over W. Both sources of a skip state must draw from that law: a run's
// own admissions (over seeds), and the restore of a version-3 checkpoint,
// which stores none and draws one (over generator states).
TEST(StatisticalTest, WedgeSkipStateFollowsItsLaw) {
  constexpr std::size_t kSlots = 4;
  constexpr VertexId kLeaves = 6;  // one star list: N = C(6, 2) wedges
  constexpr int kDraws = 4000;
  const double n = 15.0;
  const double k = static_cast<double>(kSlots);
  // Envelope offsets in the wedge layout: the header and two options, the
  // generator's words, the wedge count, then W's bits and the next index.
  constexpr std::size_t kRngAt = snapshot::kEnvelopeBytes - 4 + 2 * 8;
  constexpr std::size_t kThresholdAt = kRngAt + 4 * 8 + 8;
  auto envelope = [](const core::WedgeSamplingTriangleCounter& counter) {
    snapshot::SnapshotWriter w;
    counter.Serialize(w);
    return std::move(w).Finish();
  };
  auto options = [](std::uint64_t seed) {
    return core::WedgeSamplingOptions{.reservoir_size = kSlots, .seed = seed};
  };
  auto run_star = [&](std::uint64_t seed) {
    core::WedgeSamplingTriangleCounter counter(options(seed));
    counter.BeginPass(0);
    counter.BeginList(0);
    for (VertexId v = 1; v <= kLeaves; ++v) counter.OnPair(0, v);
    counter.EndList(0);
    return envelope(counter);
  };
  struct Draws {
    std::vector<double> thresholds;
    std::vector<double> gaps;
    void Add(const std::vector<std::uint8_t>& bytes, double wedges) {
      thresholds.push_back(
          std::bit_cast<double>(testing_util::PeekU64(bytes, kThresholdAt)));
      gaps.push_back(static_cast<double>(
                         testing_util::PeekU64(bytes, kThresholdAt + 8)) -
                     wedges - 1.0);
    }
  };
  Draws fresh;
  for (int i = 0; i < kDraws; ++i) fresh.Add(run_star(i + 1), n);

  // Seed 1's checkpoint as version 3 wrote it: no skip state.
  std::vector<std::uint8_t> older = run_star(1);
  older.erase(older.begin() + kThresholdAt, older.begin() + kThresholdAt + 16);
  testing_util::PatchU64(older, 12,  // the envelope's payload length
                         older.size() - snapshot::kEnvelopeBytes);
  testing_util::Restamp(older, 3);
  Draws decoded;
  std::uint64_t words = 99;
  for (int i = 0; i < kDraws; ++i) {
    for (int word = 0; word < 4; ++word) {
      testing_util::PatchU64(older, kRngAt + 8 * word, SplitMix64(&words));
    }
    testing_util::Reseal(older);
    StatusOr<snapshot::SnapshotReader> reader =
        snapshot::SnapshotReader::Open(older);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    core::WedgeSamplingTriangleCounter counter(options(1));
    ASSERT_TRUE(counter.Restore(*reader).ok());
    decoded.Add(envelope(counter), n);
  }

  const double mean = k / (n + 1.0);
  const double variance =
      k * (n - k + 1.0) / ((n + 1.0) * (n + 1.0) * (n + 2.0));
  const double df = static_cast<double>(kDraws - 1);
  for (const Draws* draws : {&fresh, &decoded}) {
    SCOPED_TRACE(draws == &fresh ? "a run's own skip state"
                                 : "a version-3 checkpoint's drawn state");
    const double z = (testing_util::Mean(draws->thresholds) - mean) /
                     std::sqrt(variance / kDraws);
    EXPECT_LT(std::abs(z), kMaxAbsZ);
    const double sd = testing_util::StdDev(draws->thresholds);
    const double statistic = df * sd * sd / variance;
    EXPECT_GT(statistic, ChiSquareQuantile(df, -kMaxAbsZ));
    EXPECT_LT(statistic, ChiSquareQuantile(df, kMaxAbsZ));
    EXPECT_LT(std::abs(ZScore(draws->gaps, (n - k + 1.0) / (k - 1.0))),
              kMaxAbsZ);
  }
}

TEST(StatisticalTest, TwoPassTriangleCounterIsUnbiased) {
  gen::PlantedBackground bg{.stars = 6, .star_degree = 40};
  Graph g = gen::PlantedClique(24, bg);
  const double truth = static_cast<double>(exact::CountTriangles(g));
  stream::AdjacencyListStream s(&g, 23);
  core::TwoPassTriangleOptions options;
  options.sample_size = g.num_edges() / 4;
  std::vector<double> estimates =
      PooledEstimates<core::TwoPassTriangleCounter>(s, options, 3003);
  EXPECT_LT(std::abs(ZScore(estimates, truth)), kMaxAbsZ);
}

// The heavy-edge family is where an un-careful estimator shows bias; the
// lightest-edge rule must stay centered there too.
TEST(StatisticalTest, TwoPassTriangleCounterIsUnbiasedOnHeavyEdges) {
  gen::PlantedBackground bg{.stars = 6, .star_degree = 40};
  Graph g = gen::PlantedHeavyEdgeTriangles(500, bg);
  const double truth = static_cast<double>(exact::CountTriangles(g));
  stream::AdjacencyListStream s(&g, 29);
  core::TwoPassTriangleOptions options;
  options.sample_size = g.num_edges() / 4;
  std::vector<double> estimates =
      PooledEstimates<core::TwoPassTriangleCounter>(s, options, 4004);
  EXPECT_LT(std::abs(ZScore(estimates, truth)), kMaxAbsZ);
}

// The 4-cycle multiplicity estimate (sum of per-wedge tallies / 4) is the
// unbiased statistic Lemma 4.3 analyzes; check it on disjoint 4-cycles.
TEST(StatisticalTest, FourCycleMultiplicityEstimateIsUnbiased) {
  gen::PlantedBackground bg{.stars = 6, .star_degree = 20};
  Graph g = gen::PlantedDisjointFourCycles(300, bg);
  const double truth = static_cast<double>(exact::CountFourCycles(g));
  stream::AdjacencyListStream s(&g, 37);
  std::vector<double> estimates = runtime::TrialRunner::Estimates(
      Runner().Run(kTrials, 5005, [&](std::size_t, std::uint64_t seed) {
        core::FourCycleOptions options;
        options.sample_size = g.num_edges() / 4;
        options.seed = seed;
        core::TwoPassFourCycleCounter counter(options);
        stream::RunPasses(s, &counter);
        return runtime::TrialResult{
            .estimate = counter.result().multiplicity_estimate};
      }));
  EXPECT_LT(std::abs(ZScore(estimates, truth)), kMaxAbsZ);
}

// The prefix-wedge estimator's randomness IS the stream order: each trial
// draws a fresh uniform permutation while the (deterministic) algorithm is
// held fixed, checking detections/p is centered on the truth over orders.
TEST(StatisticalTest, RandomOrderTriangleCounterIsUnbiasedOverOrders) {
  gen::PlantedBackground bg{.stars = 6, .star_degree = 20};
  Graph g = gen::PlantedDisjointTriangles(300, bg);
  const double truth = static_cast<double>(exact::CountTriangles(g));
  std::vector<double> estimates = runtime::TrialRunner::Estimates(
      Runner().Run(kTrials, 6006, [&](std::size_t, std::uint64_t seed) {
        stream::RandomOrderStream s(&g, seed);
        core::RandomOrderTriangleOptions options;
        options.prefix_size = g.num_edges() / 4;
        core::RandomOrderTriangleCounter counter(options);
        stream::RunPasses(s, &counter);
        return runtime::TrialResult{.estimate = counter.Estimate()};
      }));
  EXPECT_LT(std::abs(ZScore(estimates, truth)), kMaxAbsZ);
}

}  // namespace
}  // namespace cyclestream
