#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/median.h"
#include "exact/four_cycle.h"
#include "exact/triangle.h"
#include "gen/chung_lu.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "runtime/thread_pool.h"
#include "stream/driver.h"
#include "test_util.h"

namespace cyclestream {
namespace core {
namespace {

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0, 5.0, 5.0, 5.0}), 5.0);
}

TEST(ParallelCopies, AggregatesSpaceAndEstimates) {
  Graph g = gen::Complete(8);
  stream::AdjacencyListStream s(&g, 3);
  // Sample large enough that S = E and Q holds all 3T candidate pairs.
  AmplifiedEstimate out = EstimateTriangles(s, 4 * g.num_edges(), 5, 42);
  EXPECT_EQ(out.copy_estimates.size(), 5u);
  // Full sample in every copy: exact everywhere.
  for (double est : out.copy_estimates) EXPECT_DOUBLE_EQ(est, 56.0);
  EXPECT_DOUBLE_EQ(out.estimate, 56.0);
  EXPECT_EQ(out.report.passes_requested, 2);
}

TEST(ParallelCopies, CopiesAreIndependent) {
  gen::PlantedBackground bg{.stars = 4, .star_degree = 25};
  Graph g = gen::PlantedDisjointTriangles(100, bg);
  stream::AdjacencyListStream s(&g, 5);
  AmplifiedEstimate out = EstimateTriangles(s, g.num_edges() / 8, 9, 77);
  // Sub-sampled copies should not all agree exactly (independent sampling).
  bool all_same = true;
  for (double est : out.copy_estimates) {
    if (est != out.copy_estimates.front()) all_same = false;
  }
  EXPECT_FALSE(all_same);
}

TEST(ParallelCopies, RejectsMixedPassCounts) {
  std::vector<std::unique_ptr<stream::StreamAlgorithm>> copies;
  TwoPassTriangleOptions two;
  two.sample_size = 4;
  copies.push_back(std::make_unique<TwoPassTriangleCounter>(two));
  OnePassTriangleOptions one;
  one.sample_size = 4;
  copies.push_back(std::make_unique<OnePassTriangleCounter>(one));
  EXPECT_DEATH(ParallelCopies{std::move(copies)}, "passes");
}

// Seven copies of `Counter` (seeds 100-106) at `slots`: each driven alone,
// then as a group on pools of 2, 3, 5 and 8 threads. The pooled report must
// be the sum of the copies' own reports, with pairs counted once per pass,
// whatever the pool size, and every copy's estimate its solo one.
template <typename Counter, typename Options>
void ExpectPooledReportIsTheSum(const stream::AdjacencyListStream& s,
                                std::size_t slots) {
  auto make_copies = [slots] {
    std::vector<std::unique_ptr<stream::StreamAlgorithm>> copies;
    for (std::uint64_t seed = 100; seed <= 106; ++seed) {
      Options options;
      options.sample_size = slots;
      options.seed = seed;
      copies.push_back(std::make_unique<Counter>(options));
    }
    return copies;
  };
  std::vector<std::unique_ptr<stream::StreamAlgorithm>> alone = make_copies();
  const int passes = alone.front()->passes();
  stream::RunReport want;
  want.passes_requested = passes;
  want.pairs_processed = s.stream_length() * static_cast<std::size_t>(passes);
  want.per_pass.resize(static_cast<std::size_t>(passes));
  for (stream::PassReport& pass : want.per_pass) {
    pass.pairs_processed = s.stream_length();
  }
  for (auto& copy : alone) {
    const stream::RunReport r = stream::RunPasses(s, copy.get());
    ASSERT_EQ(r.per_pass.size(), want.per_pass.size());
    want.reported_peak_bytes += r.reported_peak_bytes;
    want.audited_peak_bytes += r.audited_peak_bytes;
    want.max_divergence_bytes += r.max_divergence_bytes;
    for (std::size_t p = 0; p < want.per_pass.size(); ++p) {
      want.per_pass[p].reported_peak_bytes += r.per_pass[p].reported_peak_bytes;
      want.per_pass[p].audited_peak_bytes += r.per_pass[p].audited_peak_bytes;
    }
  }
  // Copies audit themselves when driven directly.
  EXPECT_GT(want.audited_peak_bytes, 0u);

  for (int threads : {2, 3, 5, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    runtime::ThreadPool pool(threads);
    ParallelCopies group(make_copies());
    const stream::RunReport got = group.Run(s, &pool);
    EXPECT_EQ(got.per_pass.size(), static_cast<std::size_t>(group.passes()));
    testing_util::ExpectReportsEqual(got, want);
    for (std::size_t c = 0; c < alone.size(); ++c) {
      EXPECT_EQ(static_cast<Counter*>(group.copy(c))->Estimate(),
                static_cast<Counter*>(alone[c].get())->Estimate())
          << "copy " << c;
    }
  }
}

TEST(ParallelCopies, PooledReportIsTheSumOfTheCopiesReports) {
  Graph g = gen::ChungLuPowerLaw(2000, 16, 2.3, 1);
  stream::AdjacencyListStream s(&g, 7);
  const std::size_t slots = g.num_edges() / 32;
  {
    SCOPED_TRACE("one-pass triangle");
    ExpectPooledReportIsTheSum<OnePassTriangleCounter, OnePassTriangleOptions>(
        s, slots);
  }
  {
    SCOPED_TRACE("two-pass triangle");
    ExpectPooledReportIsTheSum<TwoPassTriangleCounter, TwoPassTriangleOptions>(
        s, slots);
  }
}

TEST(MedianAmplification, ImprovesFailureProbability) {
  // Theorem 3.7's wrapper: at a sample size where single copies sometimes
  // miss badly, the median-of-9 must land within 50% nearly always.
  gen::PlantedBackground bg{.stars = 6, .star_degree = 40};
  Graph g = gen::PlantedDisjointTriangles(400, bg);
  stream::AdjacencyListStream s(&g, 13);
  const std::size_t sample = g.num_edges() / 10;
  int single_good = 0, median_good = 0;
  const int kTrials = 30;
  for (int trial = 0; trial < kTrials; ++trial) {
    AmplifiedEstimate single = EstimateTriangles(s, sample, 1, 1000 + trial);
    AmplifiedEstimate med = EstimateTriangles(s, sample, 9, 5000 + trial);
    single_good += std::abs(single.estimate - 400.0) <= 200.0;
    median_good += std::abs(med.estimate - 400.0) <= 200.0;
  }
  EXPECT_GE(median_good, single_good);
  EXPECT_GE(median_good, kTrials - 2);
}

TEST(OnePassWrapper, Works) {
  Graph g = gen::Complete(9);
  stream::AdjacencyListStream s(&g, 2);
  AmplifiedEstimate out = EstimateTrianglesOnePass(s, g.num_edges(), 3, 8);
  EXPECT_DOUBLE_EQ(out.estimate, 84.0);  // C(9,3)
  EXPECT_EQ(out.report.passes_requested, 1);
}

TEST(FourCycleWrapper, Works) {
  Graph g = gen::CompleteBipartite(4, 4);
  stream::AdjacencyListStream s(&g, 2);
  AmplifiedEstimate out = EstimateFourCycles(s, g.num_edges(), 3, 8);
  EXPECT_DOUBLE_EQ(out.estimate,
                   static_cast<double>(exact::CountFourCycles(g)));
  EXPECT_EQ(out.report.passes_requested, 2);
}

}  // namespace
}  // namespace core
}  // namespace cyclestream
