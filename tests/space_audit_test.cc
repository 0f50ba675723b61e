// Ground-truth space audit: for every estimator, on every generator family,
// the allocator-measured live bytes (MemoryDomain, sampled by the driver at
// each list boundary) must agree with the hand-computed CurrentSpaceBytes()
// self-report within the documented slack (obs::WithinAuditSlack), at every
// sampled point of the space timeline. A second invariant: auditing is
// passive — running with a tracer attached leaves estimates bit-identical
// to an untraced run.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact_stream.h"
#include "core/four_cycle.h"
#include "core/one_pass_four_cycle.h"
#include "core/one_pass_triangle.h"
#include "core/triangle_distinguisher.h"
#include "core/two_pass_triangle.h"
#include "core/wedge_sampling_triangle.h"
#include "gen/barabasi_albert.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "graph/graph.h"
#include "obs/accounting.h"
#include "obs/space_tracer.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "test_util.h"

namespace cyclestream {
namespace {

// Four generator families covering sparse random, preferential-attachment,
// heavy-tailed, and planted-structure streams.
using testing_util::AuditFamilyGraphs;

constexpr auto& kSeeds = testing_util::kFamilySeeds;

// Runs `make()`'s algorithm with a full-resolution tracer and checks the
// audit contract at every sampled boundary, then re-runs untraced and
// asserts the extracted result is bit-identical.
template <typename MakeAlgo, typename Extract>
void ExpectAuditedRun(const stream::AdjacencyListStream& s,
                      std::size_t configured_slots, const MakeAlgo& make,
                      const Extract& extract) {
  auto traced_algo = make();
  obs::SpaceTracer tracer;  // list boundaries and pass ends
  stream::RunReport report = stream::RunPasses(
      s, traced_algo.get(), stream::TraceOptions{&tracer, nullptr});

  // Every estimator under audit binds its containers to a domain.
  ASSERT_NE(traced_algo->memory_domain(), nullptr);
  EXPECT_GT(report.audited_peak_bytes, 0u);

  // The audit contract holds at every sampled boundary of every pass.
  std::uint64_t max_reported = 0, max_audited = 0, max_div = 0;
  for (const obs::SpaceTimeline& t : tracer.timelines()) {
    ASSERT_FALSE(t.points.empty());
    for (const obs::SpacePoint& p : t.points) {
      EXPECT_TRUE(obs::WithinAuditSlack(p.reported_bytes, p.audited_bytes,
                                        configured_slots))
          << "reported=" << p.reported_bytes
          << " audited=" << p.audited_bytes << " slots=" << configured_slots
          << " at pairs=" << p.pairs_processed;
      max_reported = std::max(max_reported, p.reported_bytes);
      max_audited = std::max(max_audited, p.audited_bytes);
      const std::uint64_t div = p.reported_bytes > p.audited_bytes
                                    ? p.reported_bytes - p.audited_bytes
                                    : p.audited_bytes - p.reported_bytes;
      max_div = std::max(max_div, div);
    }
  }
  // The report's peaks and divergence are exactly the timeline maxima.
  EXPECT_EQ(report.reported_peak_bytes, max_reported);
  EXPECT_EQ(report.audited_peak_bytes, max_audited);
  EXPECT_EQ(report.max_divergence_bytes, max_div);

  // Auditing is passive: an untraced run produces a bit-identical result.
  auto plain_algo = make();
  stream::RunReport plain = stream::RunPasses(s, plain_algo.get());
  EXPECT_EQ(extract(*traced_algo), extract(*plain_algo));
  EXPECT_EQ(plain.reported_peak_bytes, report.reported_peak_bytes);
  EXPECT_EQ(plain.audited_peak_bytes, report.audited_peak_bytes);
}

TEST(SpaceAudit, OnePassTriangle) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : AuditFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 5 + 1);
      core::OnePassTriangleOptions options;
      options.sample_size = 32;
      options.seed = seed;
      ExpectAuditedRun(
          s, options.sample_size,
          [&] { return std::make_unique<core::OnePassTriangleCounter>(options); },
          [](const core::OnePassTriangleCounter& a) {
            auto r = a.result();
            return std::tuple(r.estimate, r.detections, r.edge_sample_size);
          });
    }
  }
}

TEST(SpaceAudit, TwoPassTriangle) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : AuditFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 5 + 1);
      core::TwoPassTriangleOptions options;
      options.sample_size = 32;
      options.seed = seed;
      ExpectAuditedRun(
          s, options.sample_size,
          [&] { return std::make_unique<core::TwoPassTriangleCounter>(options); },
          [](const core::TwoPassTriangleCounter& a) {
            auto r = a.result();
            return std::tuple(r.estimate, r.candidate_pairs, r.rho_hits,
                              r.pair_sample_size);
          });
    }
  }
}

TEST(SpaceAudit, WedgeSampling) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : AuditFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 5 + 1);
      core::WedgeSamplingOptions options;
      options.reservoir_size = 24;
      options.seed = seed;
      ExpectAuditedRun(
          s, options.reservoir_size,
          [&] {
            return std::make_unique<core::WedgeSamplingTriangleCounter>(
                options);
          },
          [](const core::WedgeSamplingTriangleCounter& a) {
            auto r = a.result();
            return std::tuple(r.estimate, r.wedge_count, r.closed, r.sampled);
          });
    }
  }
}

TEST(SpaceAudit, OnePassFourCycle) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : AuditFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 5 + 1);
      core::OnePassFourCycleOptions options;
      options.sample_size = 32;
      options.seed = seed;
      ExpectAuditedRun(
          s, options.sample_size,
          [&] {
            return std::make_unique<core::OnePassFourCycleCounter>(options);
          },
          [](const core::OnePassFourCycleCounter& a) {
            auto r = a.result();
            return std::tuple(r.estimate, r.detections, r.wedge_count);
          });
    }
  }
}

TEST(SpaceAudit, TwoPassFourCycle) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : AuditFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 5 + 1);
      core::FourCycleOptions options;
      options.sample_size = 32;
      options.seed = seed;
      ExpectAuditedRun(
          s, options.sample_size,
          [&] {
            return std::make_unique<core::TwoPassFourCycleCounter>(options);
          },
          [](const core::TwoPassFourCycleCounter& a) {
            auto r = a.result();
            return std::tuple(r.estimate, r.distinct_cycles,
                              r.wedge_incidences, r.wedge_count);
          });
    }
  }
}

TEST(SpaceAudit, ExactStream) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : AuditFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 5 + 1);
      ExpectAuditedRun(
          s, /*configured_slots=*/2 * g.num_edges(),
          [&] { return std::make_unique<core::ExactStreamTriangleCounter>(); },
          [](const core::ExactStreamTriangleCounter& a) {
            return std::tuple(a.triangles(), a.edge_count());
          });
    }
  }
}

TEST(SpaceAudit, TriangleDistinguisher) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : AuditFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 5 + 1);
      core::TriangleDistinguisherOptions options;
      options.sample_size = 32;
      options.seed = seed;
      ExpectAuditedRun(
          s, options.sample_size,
          [&] { return std::make_unique<core::TriangleDistinguisher>(options); },
          [](const core::TriangleDistinguisher& a) {
            auto r = a.result();
            return std::tuple(r.found_triangle, r.naive_estimate,
                              r.incidences, r.edge_sample_size);
          });
    }
  }
}

// Divergence between the two measurements is bounded over an entire run by
// the same slack that bounds each sample: a coarse regression tripwire for
// self-report bookkeeping bugs.
TEST(SpaceAudit, DivergenceIsBoundedBySlack) {
  Graph g = gen::ErdosRenyiGnp(120, 0.1, 77);
  stream::AdjacencyListStream s(&g, 21);
  core::TwoPassTriangleOptions options;
  options.sample_size = 64;
  options.seed = 3;
  core::TwoPassTriangleCounter counter(options);
  stream::RunReport report = stream::RunPasses(s, &counter);
  EXPECT_GT(report.audited_peak_bytes, 0u);
  EXPECT_LE(report.max_divergence_bytes,
            static_cast<std::uint64_t>(
                obs::kAuditSlackMultiplier *
                static_cast<double>(std::max(report.reported_peak_bytes,
                                             report.audited_peak_bytes))) +
                obs::AuditSlackBytes(options.sample_size));
}

}  // namespace
}  // namespace cyclestream
