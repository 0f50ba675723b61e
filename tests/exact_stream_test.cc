#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact_stream.h"
#include "exact/triangle.h"
#include "gen/barabasi_albert.h"
#include "gen/chung_lu.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "test_util.h"

namespace cyclestream {
namespace core {
namespace {

using stream::AdjacencyListStream;
using testing_util::RunOn;

// The sweep's graph families. Chung–Lu at γ = 2.1 and Barabási–Albert
// give hubs whose lists are much longer than the others, which the
// intersections search rather than merge; the planted clique piles
// triangles on a few lists.
const testing_util::GraphFamily kSweepFamilies[] = {
    {"erdos-renyi",
     [](std::uint64_t s) { return gen::ErdosRenyiGnp(80, 0.15, s); }},
    {"chung-lu",
     [](std::uint64_t s) { return gen::ChungLuPowerLaw(400, 8.0, 2.1, s); }},
    {"planted-clique",
     [](std::uint64_t s) {
       return gen::PlantedClique(12 + s, {.stars = 6, .star_degree = 5});
     }},
    {"barabasi-albert",
     [](std::uint64_t s) { return gen::BarabasiAlbert(200, 4, s); }},
};

// (family, graph seed, stream seed).
class ExactStreamSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ExactStreamSweep, MatchesOfflineCountOnRandomGraphs) {
  auto [family, graph_seed, stream_seed] = GetParam();
  SCOPED_TRACE(kSweepFamilies[family].name);
  Graph g = kSweepFamilies[family].make(graph_seed);
  ExactStreamTriangleCounter counter;
  RunOn(g, &counter, stream_seed);
  EXPECT_EQ(counter.triangles(), exact::CountTriangles(g));
  EXPECT_EQ(counter.edge_count(), g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactStreamSweep,
                         ::testing::Combine(::testing::Values(0),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(5, 6)));
INSTANTIATE_TEST_SUITE_P(Families, ExactStreamSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2, 3),
                                            ::testing::Values(5, 6)));

TEST(ExactStream, KnownGraphs) {
  for (std::uint64_t stream_seed : {1, 2, 3}) {
    ExactStreamTriangleCounter c1;
    RunOn(gen::Complete(10), &c1, stream_seed);
    EXPECT_EQ(c1.triangles(), 120u);

    ExactStreamTriangleCounter c2;
    RunOn(gen::Petersen(), &c2, stream_seed);
    EXPECT_EQ(c2.triangles(), 0u);
  }
}

TEST(ExactStream, SkewedGraph) {
  Graph g = gen::ChungLuPowerLaw(2000, 8.0, 2.3, 5);
  ExactStreamTriangleCounter counter;
  RunOn(g, &counter, 7);
  EXPECT_EQ(counter.triangles(), exact::CountTriangles(g));
}

TEST(ExactStream, SpaceIsLinearInEdges) {
  Graph g = gen::ErdosRenyiGnp(500, 0.05, 1);
  ExactStreamTriangleCounter counter;
  auto report = RunOn(g, &counter, 2);
  // Θ(m) state: both directions of every edge, two 4-byte ids, at least;
  // under ~64 bytes per edge with the entries, the index and the slack of
  // power-of-two capacities.
  EXPECT_GE(report.reported_peak_bytes, 2 * sizeof(VertexId) * g.num_edges());
  EXPECT_LE(report.reported_peak_bytes, 64 * g.num_edges());
}

// Runs lists [from, to) of `stream` into each counter, and checks that the
// counters meter alike at every list boundary.
void Feed(const AdjacencyListStream& stream, std::size_t from, std::size_t to,
          std::span<ExactStreamTriangleCounter* const> counters) {
  for (std::size_t i = from; i < to; ++i) {
    const VertexId u = stream.list_order()[i];
    for (ExactStreamTriangleCounter* c : counters) {
      c->BeginList(u);
      c->OnListBatch(u, stream.ListOf(u));
      c->EndList(u);
      EXPECT_EQ(c->CurrentSpaceBytes(), counters[0]->CurrentSpaceBytes())
          << "after list " << i;
      EXPECT_EQ(c->memory_domain()->live_bytes(),
                counters[0]->memory_domain()->live_bytes())
          << "after list " << i;
    }
  }
}

std::vector<std::uint8_t> Saved(const ExactStreamTriangleCounter& counter) {
  snapshot::SnapshotWriter w;
  counter.Serialize(w);
  return std::move(w).Finish();
}

Status RestoreFrom(ExactStreamTriangleCounter& counter,
                   const std::vector<std::uint8_t>& bytes) {
  StatusOr<snapshot::SnapshotReader> reader =
      snapshot::SnapshotReader::Open(bytes);
  if (!reader.ok()) return reader.status();
  return counter.Restore(*reader);
}

TEST(ExactStreamVersion6, EveryListBoundaryResumesToTheOfflineCount) {
  // Versions 1-6 stored a per-edge map, which a restore reads into pending
  // lists. Written by hand after every list of each stream, restored, and
  // run to the end, it must reach the offline count. Halfway through the
  // rest, a version-7 checkpoint of the converted state, pending lists and
  // all, must round-trip and then finish alike, metering the same bytes at
  // every boundary.
  const Graph graphs[] = {gen::ErdosRenyiGnp(60, 0.15, 3),
                          gen::ChungLuPowerLaw(150, 6.0, 2.1, 4)};
  for (const Graph& g : graphs) {
    const AdjacencyListStream stream(&g, 11);
    const std::size_t lists = stream.list_order().size();
    const std::uint64_t want = exact::CountTriangles(g);
    ASSERT_GT(want, 0u);
    for (std::size_t k = 0; k <= lists; ++k) {
      SCOPED_TRACE("converted after " + std::to_string(k) + " of " +
                   std::to_string(lists) + " lists");
      ExactStreamTriangleCounter converted;
      ASSERT_TRUE(RestoreFrom(converted, testing_util::ExactStreamVersion6(
                                             g, stream.list_order(), k))
                      .ok());
      const std::size_t mid = k + (lists - k) / 2;
      ExactStreamTriangleCounter* const first[] = {&converted};
      Feed(stream, k, mid, first);

      const std::vector<std::uint8_t> saved = Saved(converted);
      ExactStreamTriangleCounter resumed;
      ASSERT_TRUE(RestoreFrom(resumed, saved).ok());
      EXPECT_EQ(Saved(resumed), saved);
      EXPECT_EQ(resumed.CurrentSpaceBytes(), converted.CurrentSpaceBytes());
      EXPECT_EQ(resumed.memory_domain()->live_bytes(),
                converted.memory_domain()->live_bytes());
      ExactStreamTriangleCounter* const both[] = {&converted, &resumed};
      Feed(stream, mid, lists, both);
      EXPECT_EQ(converted.triangles(), want);
      EXPECT_EQ(resumed.triangles(), want);
      EXPECT_EQ(resumed.edge_count(), g.num_edges());
    }
  }
}

TEST(ExactStream, HostileIdsSizeNothing) {
  // Ids a service client may send. The index hashes them, so none sizes an
  // allocation: the triangle on them takes a few hundred bytes, and so does
  // its checkpoint's restore.
  constexpr VertexId a = 0;
  constexpr VertexId b = VertexId{1} << 31;
  constexpr VertexId c = 0xfffffffe;
  const std::pair<VertexId, std::vector<VertexId>> lists[] = {
      {c, {b, a}}, {a, {c, b}}, {b, {a, c}}};
  ExactStreamTriangleCounter counter;
  for (const auto& [u, list] : lists) {
    counter.BeginList(u);
    counter.OnListBatch(u, list);
    counter.EndList(u);
    EXPECT_LE(counter.CurrentSpaceBytes(), 256u);
    EXPECT_LE(counter.memory_domain()->live_bytes(), 256u);
  }
  EXPECT_EQ(counter.triangles(), 1u);
  ExactStreamTriangleCounter restored;
  ASSERT_TRUE(RestoreFrom(restored, Saved(counter)).ok());
  EXPECT_EQ(restored.triangles(), 1u);
  EXPECT_EQ(restored.CurrentSpaceBytes(), counter.CurrentSpaceBytes());
  EXPECT_EQ(restored.memory_domain()->live_bytes(),
            counter.memory_domain()->live_bytes());
}

// A version-7 section written by hand: the pair and triangle counts, then
// each entry's vertex, pending bit and neighbours under their count.
// `extra` is added to the last entry's neighbour count.
std::vector<std::uint8_t> Version7(
    const std::vector<std::pair<VertexId, std::vector<VertexId>>>& entries,
    std::uint64_t extra = 0) {
  snapshot::SnapshotWriter w;
  snapshot::Saver ar(w);
  ar.U64(std::uint64_t{8});
  ar.U64(std::uint64_t{0});
  ar.Count(entries.size(), 13);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [vertex, list] = entries[i];
    ar.U32(vertex);
    ar.Bool(false);
    ar.Count(list.size() + (i + 1 == entries.size() ? extra : 0), 4);
    for (VertexId v : list) ar.U32(v);
  }
  return std::move(w).Finish();
}

TEST(ExactStream, RefusesMalformedVersion7Entries) {
  struct Case {
    const char* what;
    std::vector<std::uint8_t> bytes;
    StatusCode code;
  };
  const Case cases[] = {
      {"well formed", Version7({{1, {2, 3}}, {2, {1, 3}}}), StatusCode::kOk},
      {"an unsorted list", Version7({{1, {2, 3}}, {2, {3, 1}}}),
       StatusCode::kDataLoss},
      {"a neighbour twice", Version7({{1, {2, 2}}}), StatusCode::kDataLoss},
      {"a vertex listed twice", Version7({{1, {2}}, {2, {1}}, {1, {3}}}),
       StatusCode::kDataLoss},
      {"a neighbour count past its bytes", Version7({{1, {2, 3}}}, 1),
       StatusCode::kDataLoss},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    ExactStreamTriangleCounter counter;
    EXPECT_EQ(RestoreFrom(counter, c.bytes).code(), c.code);
  }
  // An entry count past the payload's bytes, before anything is sized.
  std::vector<std::uint8_t> bytes = Version7({{1, {2}}});
  testing_util::PatchU64(bytes, snapshot::kEnvelopeBytes - 4 + 16,
                         std::uint64_t{1} << 40);
  testing_util::Reseal(bytes);
  ExactStreamTriangleCounter counter;
  EXPECT_EQ(RestoreFrom(counter, bytes).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace core
}  // namespace cyclestream
