#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/overflow.h"

namespace cyclestream {

GraphBuilder::GraphBuilder(std::size_t num_vertices)
    : num_vertices_(num_vertices) {}

void GraphBuilder::EnsureVertex(VertexId v) {
  if (static_cast<std::size_t>(v) + 1 > num_vertices_) {
    num_vertices_ = static_cast<std::size_t>(v) + 1;
  }
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u == v) return;  // simple graphs only
  EnsureVertex(u);
  EnsureVertex(v);
  edges_.push_back(u < v ? Edge{u, v} : Edge{v, u});
}

Graph GraphBuilder::Build() {
  Graph g;
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  g.edges_ = std::move(edges_);
  edges_.clear();

  g.degree_offsets_.assign(num_vertices_ + 1, 0);
  for (const Edge& e : g.edges_) {
    ++g.degree_offsets_[e.u + 1];
    ++g.degree_offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i <= num_vertices_; ++i) {
    g.degree_offsets_[i] += g.degree_offsets_[i - 1];
  }
  g.adjacency_.resize(2 * g.edges_.size());
  std::vector<std::size_t> cursor(g.degree_offsets_.begin(),
                                  g.degree_offsets_.end() - 1);
  for (const Edge& e : g.edges_) {
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
  }
  // Edges were inserted in sorted order per source, but entries from the
  // (v, u) direction interleave; sort each list for binary-search lookups.
  for (std::size_t v = 0; v < num_vertices_; ++v) {
    std::sort(g.adjacency_.begin() + g.degree_offsets_[v],
              g.adjacency_.begin() + g.degree_offsets_[v + 1]);
  }
  num_vertices_ = 0;
  return g;
}

Graph Graph::FromEdges(std::size_t num_vertices,
                       const std::vector<Edge>& edges) {
  GraphBuilder builder(num_vertices);
  for (const Edge& e : edges) builder.AddEdge(e.u, e.v);
  return builder.Build();
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u == v) return false;
  if (static_cast<std::size_t>(u) >= num_vertices() ||
      static_cast<std::size_t>(v) >= num_vertices()) {
    return false;
  }
  // Search the shorter list.
  if (degree(u) > degree(v)) std::swap(u, v);
  auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::size_t Graph::EdgeSlot(VertexId u, VertexId v) const {
  if (u > v) std::swap(u, v);
  if (u == v || static_cast<std::size_t>(v) >= num_vertices()) return kNoSlot;
  const std::span<const VertexId> nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kNoSlot;
  return degree_offsets_[u] + static_cast<std::size_t>(it - nbrs.begin());
}

std::size_t Graph::MaxDegree() const {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_vertices(); ++v) {
    best = std::max(best, degree(static_cast<VertexId>(v)));
  }
  return best;
}

std::uint64_t Graph::WedgeCount() const {
  std::uint64_t total = 0;
  for (std::size_t v = 0; v < num_vertices(); ++v) {
    // Choose2 widens through 128 bits: d*(d-1) wraps 64 bits at d ~ 2^32,
    // which 32-bit ids permit.
    total = CheckedAdd(total, Choose2(degree(static_cast<VertexId>(v))));
  }
  return total;
}

}  // namespace cyclestream
