// In-memory simple undirected graph with CSR adjacency.
//
// `Graph` is the substrate every other module consumes: generators produce
// one, exact counters read one, and `stream::AdjacencyListStream`
// materializes one as an adjacency-list-ordered stream. Graphs are immutable
// after construction; build them with `GraphBuilder` (which deduplicates
// parallel edges and rejects/drops self-loops) or `Graph::FromEdges`.

#ifndef CYCLESTREAM_GRAPH_GRAPH_H_
#define CYCLESTREAM_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace cyclestream {

class Graph;

/// Accumulates edges and assembles an immutable `Graph`.
class GraphBuilder {
 public:
  /// Creates a builder for a graph on `num_vertices` vertices
  /// (ids 0 .. num_vertices-1). The count may grow via `EnsureVertex`.
  explicit GraphBuilder(std::size_t num_vertices = 0);

  /// Grows the vertex set so that `v` is a valid id.
  void EnsureVertex(VertexId v);

  /// Adds undirected edge {u, v}. Self-loops are silently dropped (the
  /// paper's model is simple graphs); duplicates are deduplicated at Build().
  void AddEdge(VertexId u, VertexId v);

  /// Number of vertices currently declared.
  std::size_t num_vertices() const { return num_vertices_; }

  /// Assembles the graph. The builder is left empty.
  Graph Build();

 private:
  std::size_t num_vertices_ = 0;
  std::vector<Edge> edges_;
};

/// Immutable simple undirected graph.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an edge list; convenience over GraphBuilder.
  static Graph FromEdges(std::size_t num_vertices,
                         const std::vector<Edge>& edges);

  /// Number of vertices `n`.
  std::size_t num_vertices() const { return degree_offsets_.empty() ? 0 : degree_offsets_.size() - 1; }

  /// Number of undirected edges `m`.
  std::size_t num_edges() const { return edges_.size(); }

  /// Degree of vertex `v`.
  std::size_t degree(VertexId v) const {
    return degree_offsets_[v + 1] - degree_offsets_[v];
  }

  /// Neighbors of `v`, sorted ascending.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + degree_offsets_[v],
            adjacency_.data() + degree_offsets_[v + 1]};
  }

  /// All edges, one entry per undirected edge, with u < v, sorted.
  const std::vector<Edge>& edges() const { return edges_; }

  /// True iff {u, v} is an edge. O(log deg).
  bool HasEdge(VertexId u, VertexId v) const;

  /// What EdgeSlot returns for a pair that is not an edge.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// The CSR slot of edge {u, v}: the index, in the 2m-entry adjacency
  /// array, of max(u, v) in min(u, v)'s sorted neighbor list. Each edge has
  /// one slot, the same for (u, v) and (v, u), so a bitmap of 2m bits marks
  /// edges without hashing. kNoSlot for a self-loop, an out-of-range id or
  /// a non-edge. O(log deg(min(u, v))).
  std::size_t EdgeSlot(VertexId u, VertexId v) const;

  /// Maximum degree over all vertices (0 for the empty graph).
  std::size_t MaxDegree() const;

  /// Number of paths of length two (wedges), Σ_v C(deg(v), 2).
  std::uint64_t WedgeCount() const;

 private:
  friend class GraphBuilder;

  std::vector<Edge> edges_;                 // canonical, sorted, unique
  std::vector<std::size_t> degree_offsets_; // size n+1
  std::vector<VertexId> adjacency_;         // size 2m
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_GRAPH_GRAPH_H_
