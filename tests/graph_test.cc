#include <vector>

#include <gtest/gtest.h>

#include "gen/chung_lu.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "graph/wedge.h"

namespace cyclestream {
namespace {

TEST(EdgeKey, RoundTrips) {
  EdgeKey key = MakeEdgeKey(7, 3);
  EXPECT_EQ(EdgeKeyLo(key), 3u);
  EXPECT_EQ(EdgeKeyHi(key), 7u);
  EXPECT_EQ(MakeEdgeKey(3, 7), key);  // orientation-independent
  Edge e = EdgeFromKey(key);
  EXPECT_EQ(e.u, 3u);
  EXPECT_EQ(e.v, 7u);
}

TEST(EdgeKey, OtherEndpoint) {
  EdgeKey key = MakeEdgeKey(10, 20);
  EXPECT_EQ(OtherEndpoint(key, 10), 20u);
  EXPECT_EQ(OtherEndpoint(key, 20), 10u);
}

TEST(EdgeKey, OrderedByLoThenHi) {
  EXPECT_LT(MakeEdgeKey(1, 5), MakeEdgeKey(2, 3));
  EXPECT_LT(MakeEdgeKey(1, 3), MakeEdgeKey(1, 5));
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(2);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, GrowsVertexSetFromEdges) {
  GraphBuilder b;
  b.AddEdge(5, 9);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.degree(9), 1u);
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_EQ(g.WedgeCount(), 0u);
}

TEST(Graph, NeighborsSortedAndComplete) {
  Graph g = Graph::FromEdges(5, {{0, 3}, {0, 1}, {0, 4}, {2, 0}});
  auto nbrs = g.neighbors(0);
  std::vector<VertexId> got(nbrs.begin(), nbrs.end());
  EXPECT_EQ(got, (std::vector<VertexId>{1, 2, 3, 4}));
}

TEST(Graph, HasEdge) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_FALSE(g.HasEdge(0, 99));  // out of range is not an error
}

TEST(Graph, EdgeSlotGivesEachEdgeOneCsrSlot) {
  const Graph graphs[] = {gen::ErdosRenyiGnp(80, 0.1, 3),
                          gen::ChungLuPowerLaw(200, 6.0, 2.3, 5)};
  for (const Graph& g : graphs) {
    const std::size_t m = g.num_edges();
    ASSERT_GT(m, 0u);
    // Slot s of vertex u's list is s minus the degrees of the vertices
    // before u.
    std::vector<std::size_t> first_slot(g.num_vertices() + 1, 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      first_slot[v + 1] = first_slot[v] + g.degree(v);
    }
    std::vector<bool> used(2 * m, false);
    for (const Edge& e : g.edges()) {
      const std::size_t slot = g.EdgeSlot(e.u, e.v);
      ASSERT_LT(slot, 2 * m);
      EXPECT_FALSE(used[slot]) << e.u << " " << e.v;
      used[slot] = true;
      EXPECT_EQ(g.EdgeSlot(e.v, e.u), slot);
      ASSERT_GE(slot, first_slot[e.u]);
      EXPECT_EQ(g.neighbors(e.u)[slot - first_slot[e.u]], e.v);
    }
  }
}

TEST(Graph, EdgeSlotOfNoEdgeIsNoSlot) {
  const Graph g = gen::ErdosRenyiGnp(80, 0.1, 3);
  const VertexId n = static_cast<VertexId>(g.num_vertices());
  for (VertexId u = 0; u < n; ++u) {
    EXPECT_EQ(g.EdgeSlot(u, u), Graph::kNoSlot);
    for (VertexId v = u + 1; v < n; ++v) {
      EXPECT_EQ(g.EdgeSlot(u, v) != Graph::kNoSlot, g.HasEdge(u, v))
          << u << " " << v;
    }
  }
  EXPECT_EQ(g.EdgeSlot(0, n), Graph::kNoSlot);
  EXPECT_EQ(g.EdgeSlot(n, 0), Graph::kNoSlot);
  EXPECT_EQ(g.EdgeSlot(n, n + 1), Graph::kNoSlot);
  EXPECT_EQ(g.EdgeSlot(0, 0xffffffffu), Graph::kNoSlot);
  EXPECT_EQ(Graph().EdgeSlot(0, 1), Graph::kNoSlot);
}

TEST(Graph, EdgesCanonicalSortedUnique) {
  Graph g = Graph::FromEdges(4, {{3, 2}, {1, 0}, {2, 3}, {0, 2}});
  const auto& edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
  EXPECT_EQ(edges[2], (Edge{2, 3}));
}

TEST(Graph, DegreeAndMaxDegree) {
  Graph g = gen::Star(6);
  EXPECT_EQ(g.degree(0), 6u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.MaxDegree(), 6u);
}

TEST(Graph, WedgeCountMatchesFormula) {
  // K4: each vertex has degree 3 -> 4 * C(3,2) = 12 wedges.
  EXPECT_EQ(gen::Complete(4).WedgeCount(), 12u);
  // Star with 5 leaves: C(5,2) = 10.
  EXPECT_EQ(gen::Star(5).WedgeCount(), 10u);
  // Path on 4 vertices: 2 internal vertices with degree 2 -> 2 wedges.
  EXPECT_EQ(gen::PathGraph(4).WedgeCount(), 2u);
}

TEST(Wedge, CanonicalizesEndpoints) {
  Wedge w1 = MakeWedge(5, 9, 2);
  Wedge w2 = MakeWedge(5, 2, 9);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1.end_lo, 2u);
  EXPECT_EQ(w1.end_hi, 9u);
  EXPECT_EQ(WedgeHashKey(w1), WedgeHashKey(w2));
}

TEST(Wedge, DistinctWedgesDistinctKeys) {
  // Same endpoints, different centers must hash differently.
  EXPECT_NE(WedgeHashKey(MakeWedge(1, 2, 3)), WedgeHashKey(MakeWedge(4, 2, 3)));
  // Same center, different endpoints.
  EXPECT_NE(WedgeHashKey(MakeWedge(1, 2, 3)), WedgeHashKey(MakeWedge(1, 2, 4)));
}

TEST(DisjointUnion, CopiesAreIsolated) {
  Graph tri = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  Graph g = gen::DisjointUnion(tri, 3);
  EXPECT_EQ(g.num_vertices(), 9u);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_TRUE(g.HasEdge(3, 4));
  EXPECT_FALSE(g.HasEdge(2, 3));
}

}  // namespace
}  // namespace cyclestream
