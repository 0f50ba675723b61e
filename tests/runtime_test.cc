// Tests for the runtime layer: ThreadPool execution, TrialSeed derivation,
// and the TrialRunner determinism contract — the same (num_trials,
// base_seed, fn) must produce bit-identical results at every thread count,
// including through the parallel median-amplification path.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/median.h"
#include "gen/planted.h"
#include <gtest/gtest.h>
#include "runtime/thread_pool.h"
#include "runtime/trial_runner.h"
#include "stream/adjacency_stream.h"
#include "util/random.h"
#include "test_util.h"

namespace cyclestream {
namespace {

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  runtime::ThreadPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  runtime::ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
  std::atomic<int> count{0};
  zero.Submit([&count] { ++count; }).wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> count{0};
  {
    runtime::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(runtime::HardwareThreads(), 1);
}

TEST(TrialSeedTest, DeterministicAndDistinct) {
  EXPECT_EQ(runtime::TrialSeed(42, 7), runtime::TrialSeed(42, 7));
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1000; ++i) {
    seeds.insert(runtime::TrialSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions across trial indices
  EXPECT_NE(runtime::TrialSeed(1, 0), runtime::TrialSeed(2, 0));
}

// The core determinism contract: same inputs, any thread count,
// bit-identical outputs in trial-index order.
TEST(TrialRunnerTest, BitIdenticalAcrossThreadCounts) {
  auto fn = [](std::size_t index, std::uint64_t seed) {
    // Mildly seed-sensitive payload so reordering would be visible.
    Rng rng(seed);
    runtime::TrialResult r;
    r.estimate = static_cast<double>(rng.Next64() >> 11) *
                 (1.0 + static_cast<double>(index));
    r.aux = static_cast<double>(rng.Next64() & 0xffff);
    r.reported_peak_bytes = static_cast<std::size_t>(rng.Next64() & 0xfff);
    return r;
  };
  const std::size_t kTrials = 64;
  runtime::TrialRunner seq(1);
  std::vector<runtime::TrialResult> base = seq.Run(kTrials, 99, fn);
  ASSERT_EQ(base.size(), kTrials);
  for (int threads : {2, 8}) {
    runtime::TrialRunner runner(threads);
    std::vector<runtime::TrialResult> got = runner.Run(kTrials, 99, fn);
    ASSERT_EQ(got.size(), kTrials);
    for (std::size_t i = 0; i < kTrials; ++i) {
      EXPECT_EQ(got[i].estimate, base[i].estimate) << "trial " << i;
      EXPECT_EQ(got[i].aux, base[i].aux) << "trial " << i;
      EXPECT_EQ(got[i].reported_peak_bytes, base[i].reported_peak_bytes)
          << "trial " << i;
    }
  }
}

TEST(TrialRunnerTest, TrialFnSeesDerivedSeeds) {
  runtime::TrialRunner runner(3);
  std::vector<runtime::TrialResult> results = runner.Run(
      16, 7, [](std::size_t index, std::uint64_t seed) {
        EXPECT_EQ(seed, runtime::TrialSeed(7, index));
        return runtime::TrialResult{.estimate = static_cast<double>(index)};
      });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].estimate, static_cast<double>(i));  // slot order
  }
}

TEST(TrialRunnerTest, MapPreservesIndexOrder) {
  runtime::TrialRunner runner(4);
  std::vector<std::uint64_t> out = runner.Map<std::uint64_t>(
      50, 123, [](std::size_t index, std::uint64_t seed) {
        return seed ^ static_cast<std::uint64_t>(index);
      });
  ASSERT_EQ(out.size(), 50u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], runtime::TrialSeed(123, i) ^ i);
  }
}

// A throwing trial reaches the caller only after every other trial has
// finished: the others write into the vector Map would return, and a trial
// still running after the rethrow would write into freed memory.
TEST(TrialRunnerTest, ThrowingTrialWaitsForEveryOtherTrial) {
  std::atomic<int> finished{0};  // declared first: outlives the runner's pool
  runtime::TrialRunner runner(4);
  bool caught = false;
  try {
    runner.Map<int>(8, 0, [&finished](std::size_t index, std::uint64_t) {
      if (index == 0) throw std::runtime_error("trial 0 failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ++finished;
      return static_cast<int>(index);
    });
  } catch (const std::runtime_error&) {
    caught = true;
    EXPECT_EQ(finished.load(), 7);
  }
  EXPECT_TRUE(caught);
}

TEST(TrialRunnerTest, BorrowedNullPoolRunsInline) {
  runtime::TrialRunner runner(static_cast<runtime::ThreadPool*>(nullptr));
  EXPECT_EQ(runner.num_threads(), 1);
  std::vector<runtime::TrialResult> results = runner.Run(
      5, 3, [](std::size_t index, std::uint64_t) {
        return runtime::TrialResult{.estimate = static_cast<double>(index)};
      });
  EXPECT_EQ(results.size(), 5u);
}

TEST(TrialRunnerTest, AggregationHelpers) {
  std::vector<runtime::TrialResult> results = {
      {.estimate = 1.0, .aux = 10.0, .reported_peak_bytes = 5},
      {.estimate = 2.0, .aux = 20.0, .reported_peak_bytes = 50},
      {.estimate = 3.0, .aux = 30.0, .reported_peak_bytes = 7},
  };
  EXPECT_EQ(runtime::TrialRunner::Estimates(results),
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(runtime::TrialRunner::AuxEstimates(results),
            (std::vector<double>{10.0, 20.0, 30.0}));
  EXPECT_EQ(runtime::TrialRunner::MaxReportedPeak(results), 50u);
}

// Wall-clock parallel EstimateTriangles must reproduce the sequential
// estimates bit-for-bit: copy seeds do not depend on the pool.
TEST(ParallelAmplificationTest, EstimateTrianglesMatchesSequential) {
  gen::PlantedBackground bg{.stars = 4, .star_degree = 20};
  Graph g = gen::PlantedDisjointTriangles(200, bg);
  stream::AdjacencyListStream s(&g, 31);
  const std::size_t sample = g.num_edges() / 4;
  core::AmplifiedEstimate base =
      core::EstimateTriangles(s, sample, 7, 555, nullptr);
  for (int threads : {2, 5}) {
    runtime::ThreadPool pool(threads);
    core::AmplifiedEstimate got =
        core::EstimateTriangles(s, sample, 7, 555, &pool);
    EXPECT_EQ(got.estimate, base.estimate);
    ASSERT_EQ(got.copy_estimates.size(), base.copy_estimates.size());
    for (std::size_t i = 0; i < base.copy_estimates.size(); ++i) {
      EXPECT_EQ(got.copy_estimates[i], base.copy_estimates[i])
          << "copy " << i << " at " << threads << " threads";
    }
    EXPECT_EQ(got.report.pairs_processed, base.report.pairs_processed);
  }
}

TEST(ParallelAmplificationTest, EstimateTrianglesOnePassMatchesSequential) {
  gen::PlantedBackground bg{.stars = 4, .star_degree = 20};
  Graph g = gen::PlantedDisjointTriangles(150, bg);
  stream::AdjacencyListStream s(&g, 77);
  const std::size_t sample = g.num_edges() / 4;
  core::AmplifiedEstimate base =
      core::EstimateTrianglesOnePass(s, sample, 5, 999, nullptr);
  runtime::ThreadPool pool(3);
  core::AmplifiedEstimate got =
      core::EstimateTrianglesOnePass(s, sample, 5, 999, &pool);
  EXPECT_EQ(got.estimate, base.estimate);
  EXPECT_EQ(got.copy_estimates, base.copy_estimates);
}

TEST(ParallelAmplificationTest, EstimateFourCyclesMatchesSequential) {
  gen::PlantedBackground bg{.stars = 4, .star_degree = 20};
  Graph g = gen::PlantedDisjointFourCycles(120, bg);
  stream::AdjacencyListStream s(&g, 13);
  const std::size_t sample = g.num_edges() / 4;
  core::AmplifiedEstimate base =
      core::EstimateFourCycles(s, sample, 5, 321, nullptr);
  runtime::ThreadPool pool(4);
  core::AmplifiedEstimate got =
      core::EstimateFourCycles(s, sample, 5, 321, &pool);
  EXPECT_EQ(got.estimate, base.estimate);
  EXPECT_EQ(got.copy_estimates, base.copy_estimates);
}

// More copies than workers (16) queue tasks behind busy workers, fewer (3)
// leave workers idle, and one copy takes the lockstep fall-through inside
// Run.
TEST(ParallelAmplificationTest, ChunkingEdgeCases) {
  gen::PlantedBackground bg{.stars = 2, .star_degree = 10};
  Graph g = gen::PlantedDisjointTriangles(60, bg);
  stream::AdjacencyListStream s(&g, 5);
  const std::size_t sample = g.num_edges() / 2;
  runtime::ThreadPool pool(8);  // more workers than copies
  for (int copies : {1, 3, 16}) {
    core::AmplifiedEstimate base =
        core::EstimateTriangles(s, sample, copies, 42, nullptr);
    core::AmplifiedEstimate got =
        core::EstimateTriangles(s, sample, copies, 42, &pool);
    EXPECT_EQ(got.copy_estimates, base.copy_estimates) << copies << " copies";
  }
}

}  // namespace
}  // namespace cyclestream
