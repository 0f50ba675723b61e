// The tentpole invariant of the batched substrate: for every estimator,
// batched (OnListBatch) and per-pair (OnPair) delivery are bit-identical —
// same estimate, same reported_peak_bytes, same per-pass reports — on every
// generator family. PairwiseOnly<> provides the reference per-pair replay
// of the exact same stream object. A second group proves the validator's
// span path: violation kinds, positions, counters, and the delivered
// prefix all match pair-at-a-time validation.

#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact_stream.h"
#include "core/four_cycle.h"
#include "core/median.h"
#include "core/one_pass_four_cycle.h"
#include "core/one_pass_triangle.h"
#include "core/triangle_distinguisher.h"
#include "core/two_pass_triangle.h"
#include "core/wedge_sampling_triangle.h"
#include "gen/barabasi_albert.h"
#include "gen/chung_lu.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "gen/projective_plane.h"
#include "graph/graph.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "stream/validator.h"
#include "test_util.h"

namespace cyclestream {
namespace {

// One graph per generator family; `seed` perturbs the random families (the
// deterministic ones vary only through the stream order).
using testing_util::DenseFamilyGraphs;

// Runs `make()`'s algorithm over `stream` twice — once with batched
// delivery, once through PairwiseOnly — and asserts the full reports and
// the extracted result are equal to the bit.
template <typename MakeAlgo, typename Extract>
void ExpectDeliveryIdentical(const stream::AdjacencyListStream& s,
                             const MakeAlgo& make, const Extract& extract) {
  auto batched = make();
  stream::RunReport batch_report = stream::RunPasses(s, batched.get());

  stream::PairwiseOnly<stream::AdjacencyListStream> pairwise(&s);
  auto paired = make();
  stream::RunReport pair_report = stream::RunPasses(pairwise, paired.get());

  EXPECT_EQ(extract(*batched), extract(*paired));
  EXPECT_EQ(batch_report.reported_peak_bytes, pair_report.reported_peak_bytes);
  EXPECT_EQ(batch_report.pairs_processed, pair_report.pairs_processed);
  EXPECT_EQ(batch_report.passes_requested, pair_report.passes_requested);
  ASSERT_EQ(batch_report.per_pass.size(), pair_report.per_pass.size());
  for (std::size_t p = 0; p < batch_report.per_pass.size(); ++p) {
    EXPECT_EQ(batch_report.per_pass[p].reported_peak_bytes,
              pair_report.per_pass[p].reported_peak_bytes);
    EXPECT_EQ(batch_report.per_pass[p].pairs_processed,
              pair_report.per_pass[p].pairs_processed);
  }
  EXPECT_EQ(batched->CurrentSpaceBytes(), paired->CurrentSpaceBytes());
}

constexpr auto& kSeeds = testing_util::kFamilySeeds;

TEST(BatchEquivalence, OnePassTriangle) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : DenseFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 3 + 1);
      core::OnePassTriangleOptions options;
      options.sample_size = 32;
      options.seed = seed;
      ExpectDeliveryIdentical(
          s,
          [&] { return std::make_unique<core::OnePassTriangleCounter>(options); },
          [](const core::OnePassTriangleCounter& a) {
            auto r = a.result();
            return std::tuple(r.estimate, r.detections, r.edge_sample_size);
          });
    }
  }
}

TEST(BatchEquivalence, TwoPassTriangle) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : DenseFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 3 + 1);
      core::TwoPassTriangleOptions options;
      options.sample_size = 32;
      options.seed = seed;
      ExpectDeliveryIdentical(
          s,
          [&] { return std::make_unique<core::TwoPassTriangleCounter>(options); },
          [](const core::TwoPassTriangleCounter& a) {
            auto r = a.result();
            return std::tuple(r.estimate, r.candidate_pairs, r.rho_hits,
                              r.pair_sample_size);
          });
    }
  }
}

TEST(BatchEquivalence, WedgeSampling) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : DenseFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 3 + 1);
      core::WedgeSamplingOptions options;
      options.reservoir_size = 24;
      options.seed = seed;
      ExpectDeliveryIdentical(
          s,
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

TEST(BatchEquivalence, OnePassFourCycle) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : DenseFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 3 + 1);
      core::OnePassFourCycleOptions options;
      options.sample_size = 32;
      options.seed = seed;
      ExpectDeliveryIdentical(
          s,
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

TEST(BatchEquivalence, TwoPassFourCycle) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : DenseFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 3 + 1);
      core::FourCycleOptions options;
      options.sample_size = 32;
      options.seed = seed;
      ExpectDeliveryIdentical(
          s,
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

TEST(BatchEquivalence, ExactStream) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : DenseFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 3 + 1);
      ExpectDeliveryIdentical(
          s, [&] { return std::make_unique<core::ExactStreamTriangleCounter>(); },
          [](const core::ExactStreamTriangleCounter& a) {
            return std::tuple(a.triangles(), a.edge_count());
          });
    }
  }
}

TEST(BatchEquivalence, TriangleDistinguisher) {
  for (std::uint64_t seed : kSeeds) {
    for (const Graph& g : DenseFamilyGraphs(seed)) {
      stream::AdjacencyListStream s(&g, seed * 3 + 1);
      core::TriangleDistinguisherOptions options;
      options.sample_size = 32;
      options.seed = seed;
      ExpectDeliveryIdentical(
          s,
          [&] { return std::make_unique<core::TriangleDistinguisher>(options); },
          [](const core::TriangleDistinguisher& a) {
            auto r = a.result();
            return std::tuple(r.found_triangle, r.naive_estimate,
                              r.incidences, r.edge_sample_size);
          });
    }
  }
}

// Amplified groups forward batches to every copy; the group as a whole must
// obey the same invariant.
TEST(BatchEquivalence, ParallelCopiesForwardsBatches) {
  for (std::uint64_t seed : kSeeds) {
    Graph g = gen::ErdosRenyiGnp(60, 0.15, seed);
    stream::AdjacencyListStream s(&g, seed + 9);
    auto make_group = [&] {
      std::vector<std::unique_ptr<stream::StreamAlgorithm>> copies;
      for (int c = 0; c < 3; ++c) {
        core::OnePassTriangleOptions options;
        options.sample_size = 16;
        options.seed = seed + static_cast<std::uint64_t>(c);
        copies.push_back(
            std::make_unique<core::OnePassTriangleCounter>(options));
      }
      return std::make_unique<core::ParallelCopies>(std::move(copies));
    };
    ExpectDeliveryIdentical(s, make_group, [](const core::ParallelCopies& grp) {
      auto& g2 = const_cast<core::ParallelCopies&>(grp);
      std::vector<double> ests;
      for (std::size_t c = 0; c < g2.num_copies(); ++c) {
        ests.push_back(
            static_cast<core::OnePassTriangleCounter*>(g2.copy(c))->Estimate());
      }
      return ests;
    });
  }
}

// ---------------------------------------------------------------------------
// Validator span path.

// Hand-built list stream whose lists can be corrupted; delivers spans to
// batch-capable sinks, per-pair otherwise (mirroring AdjacencyListStream).
struct ScriptedListStream {
  const Graph* g = nullptr;
  std::vector<std::pair<VertexId, std::vector<VertexId>>> lists;

  const Graph& graph() const { return *g; }
  std::size_t stream_length() const { return 2 * g->num_edges(); }

  template <typename Sink>
  void ReplayPass(Sink&& fn) const {
    for (const auto& [u, list] : lists) {
      fn.BeginList(u);
      if constexpr (requires { fn.OnList(u, std::span<const VertexId>{}); }) {
        fn.OnList(u, std::span<const VertexId>(list));
      } else {
        for (VertexId v : list) fn.OnPair(u, v);
      }
      fn.EndList(u);
    }
  }
};

ScriptedListStream ScriptedFrom(const Graph& g,
                                const stream::AdjacencyListStream& s) {
  ScriptedListStream scripted;
  scripted.g = &g;
  for (VertexId u : s.list_order()) {
    auto span = s.ListOf(u);
    scripted.lists.push_back({u, {span.begin(), span.end()}});
  }
  return scripted;
}

// Replays `scripted` through two validators — span delivery vs per-pair —
// and asserts identical outcomes, returning the span-mode ok-prefix of the
// corrupted list alongside the per-pair delivered count.
void ExpectValidatorEquivalent(const ScriptedListStream& scripted,
                               stream::ViolationKind expected_kind) {
  stream::AdjacencyListContract span_validator(&scripted.graph());
  stream::AdjacencyListContract pair_validator(&scripted.graph());

  span_validator.BeginPass(0);
  std::vector<std::size_t> span_prefixes;
  for (const auto& [u, list] : scripted.lists) {
    span_validator.BeginList(u);
    span_prefixes.push_back(
        span_validator.OnList(u, std::span<const VertexId>(list)));
    span_validator.EndList(u);
  }
  span_validator.EndPass(0);

  pair_validator.BeginPass(0);
  std::vector<std::size_t> pair_prefixes;
  for (const auto& [u, list] : scripted.lists) {
    pair_validator.BeginList(u);
    std::size_t delivered = 0;
    for (VertexId v : list) {
      pair_validator.OnPair(u, v);
      // What the driver's per-pair delivery would forward to the algorithm.
      if (pair_validator.ok()) ++delivered;
    }
    pair_prefixes.push_back(delivered);
    pair_validator.EndList(u);
  }
  pair_validator.EndPass(0);

  ASSERT_FALSE(span_validator.ok());
  ASSERT_FALSE(pair_validator.ok());
  const stream::Violation& sv = *span_validator.violation();
  const stream::Violation& pv = *pair_validator.violation();
  EXPECT_EQ(sv.kind, expected_kind);
  EXPECT_EQ(sv.kind, pv.kind);
  EXPECT_EQ(sv.position, pv.position);
  EXPECT_EQ(sv.list, pv.list);
  EXPECT_EQ(sv.pass, pv.pass);

  const auto& sc = span_validator.counters();
  const auto& pc = pair_validator.counters();
  EXPECT_EQ(sc.events_checked, pc.events_checked);
  EXPECT_EQ(sc.pairs_checked, pc.pairs_checked);
  EXPECT_EQ(sc.violations_total, pc.violations_total);
  EXPECT_EQ(sc.violations_by_kind, pc.violations_by_kind);

  EXPECT_EQ(span_prefixes, pair_prefixes);
}

TEST(ValidatorSpanPath, DuplicatePairMatchesPairMode) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 5);
  stream::AdjacencyListStream s(&g, 11);
  ScriptedListStream scripted = ScriptedFrom(g, s);
  // Duplicate the second element of the first list with >= 2 neighbors.
  for (auto& [u, list] : scripted.lists) {
    if (list.size() >= 2) {
      list.push_back(list[1]);
      break;
    }
  }
  ExpectValidatorEquivalent(scripted, stream::ViolationKind::kDuplicatePair);
}

TEST(ValidatorSpanPath, ForeignPairMatchesPairMode) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 6);
  stream::AdjacencyListStream s(&g, 12);
  ScriptedListStream scripted = ScriptedFrom(g, s);
  // Insert a non-edge mid-list: vertex ids equal to n are unknown.
  for (auto& [u, list] : scripted.lists) {
    if (list.size() >= 2) {
      list.insert(list.begin() + 1,
                  static_cast<VertexId>(g.num_vertices() + 1));
      break;
    }
  }
  ExpectValidatorEquivalent(scripted, stream::ViolationKind::kForeignPair);
}

TEST(ValidatorSpanPath, MissingPairMatchesPairMode) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 7);
  stream::AdjacencyListStream s(&g, 13);
  ScriptedListStream scripted = ScriptedFrom(g, s);
  // Drop the last element of the first non-trivial list; the violation is
  // stashed at EndList and promoted at the next violation or EndPass, which
  // also exercises the pending-missing interaction with the span prefix.
  for (auto& [u, list] : scripted.lists) {
    if (list.size() >= 2) {
      list.pop_back();
      break;
    }
  }
  ExpectValidatorEquivalent(scripted, stream::ViolationKind::kMissingPair);
}

// Strict driver end-to-end over spans: the algorithm must receive exactly
// the per-pair prefix in both modes, leaving bit-identical state.
TEST(ValidatorSpanPath, CheckedRunDeliversSamePrefix) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 8);
  stream::AdjacencyListStream s(&g, 14);
  ScriptedListStream scripted = ScriptedFrom(g, s);
  // Corrupt a list in the middle of the pass with a duplicate.
  std::size_t corrupted = 0;
  for (std::size_t i = scripted.lists.size() / 2; i < scripted.lists.size();
       ++i) {
    if (scripted.lists[i].second.size() >= 2) {
      auto& list = scripted.lists[i].second;
      const VertexId dup = list[0];
      list.insert(list.begin() + 1, dup);
      corrupted = i;
      break;
    }
  }
  ASSERT_GE(scripted.lists[corrupted].second.size(), 3u);

  core::ExactStreamTriangleCounter batch_algo;
  auto batch_status = stream::RunPassesChecked(scripted, &batch_algo);
  stream::PairwiseOnly<ScriptedListStream> pairwise(&scripted);
  core::ExactStreamTriangleCounter pair_algo;
  auto pair_status = stream::RunPassesChecked(pairwise, &pair_algo);

  ASSERT_FALSE(batch_status.ok());
  ASSERT_FALSE(pair_status.ok());
  EXPECT_EQ(batch_status.status().message(), pair_status.status().message());
  EXPECT_EQ(batch_algo.triangles(), pair_algo.triangles());
  EXPECT_EQ(batch_algo.CurrentSpaceBytes(), pair_algo.CurrentSpaceBytes());
}

}  // namespace
}  // namespace cyclestream
