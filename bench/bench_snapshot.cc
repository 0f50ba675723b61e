// Snapshot sizes: the Section 5.1 identity, measured.
//
// The reduction equates an algorithm's retained state at a boundary with a
// one-way communication message, and this repo's snapshot envelope makes
// both literal: the same bytes are the crash-recovery checkpoint and the
// protocol message. This bench measures that identity three ways:
//
//   1. Serialized-state size vs T on planted cliques at the paper's edge-
//      sample sizing k = C * m / T^{2/3} (one-pass triangle counter, whose
//      state is a pure k-edge reservoir): the snapshot payload must shrink
//      with the same -2/3 exponent as the working space it encodes
//      (bench::FitCurve emits the fit for bench_report.py to cross-check).
//   2. Snapshot payload vs allocator-audited live bytes: the payload is the
//      state made flat, so it must track the audited footprint within a
//      small constant (length prefixes and options headers, no more).
//   3. Protocol wire vs self-reported space: RunSerializedProtocol's
//      envelope sizes against the monolithic run's CurrentSpaceBytes()
//      messages for the same gadget — two measurements of one quantity.
//
// Also reports the full checkpoint envelope (driver report + contract +
// algorithm) from a checkpointing RunPassesChecked, so the recovery cost of
// the chaos harness is a number, not a guess.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/one_pass_triangle.h"
#include "core/triangle_distinguisher.h"
#include "graph/graph.h"
#include "lowerbound/comm_problems.h"
#include "lowerbound/gadget_triangle.h"
#include "lowerbound/protocol.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"

namespace cyclestream {
namespace {

// Clique on the first `clique_size` vertices plus a vertex-disjoint complete
// bipartite background padding the edge count to ~target_edges. K_{a,a} is
// triangle-free, so T = C(clique_size, 3) exactly — and it packs the padding
// edges into only ~2*sqrt(m) vertices, keeping the number of adjacency-list
// boundaries (and thus per-boundary checkpoint work) small.
Graph MakeWorkload(std::size_t clique_size, std::size_t target_edges) {
  std::size_t planted_edges = clique_size * (clique_size - 1) / 2;
  CYCLESTREAM_CHECK_LE(planted_edges, target_edges);
  const std::size_t side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(target_edges - planted_edges))));
  std::vector<Edge> edges;
  edges.reserve(planted_edges + side * side);
  for (VertexId u = 0; u + 1 < static_cast<VertexId>(clique_size); ++u) {
    for (VertexId v = u + 1; v < static_cast<VertexId>(clique_size); ++v) {
      edges.push_back({u, v});
    }
  }
  const VertexId base = static_cast<VertexId>(clique_size);
  for (VertexId a = 0; a < static_cast<VertexId>(side); ++a) {
    for (VertexId b = 0; b < static_cast<VertexId>(side); ++b) {
      edges.push_back({base + a, base + static_cast<VertexId>(side) + b});
    }
  }
  return Graph::FromEdges(clique_size + 2 * side, edges);
}

struct SizePoint {
  std::size_t t_count = 0;
  std::size_t sample = 0;
  std::size_t payload_bytes = 0;     // algorithm state alone
  std::size_t audited_bytes = 0;     // allocator-measured live bytes
  std::size_t checkpoint_bytes = 0;  // max full checkpoint envelope
};

SizePoint MeasureOne(const Graph& g, std::size_t t_count, std::size_t sample) {
  SizePoint point;
  point.t_count = t_count;
  point.sample = sample;
  stream::AdjacencyListStream s(&g, 104729);
  core::OnePassTriangleOptions options;
  options.sample_size = sample;
  options.seed = 271828;
  core::OnePassTriangleCounter counter(options);
  auto track_max = [&point](int, std::size_t,
                            std::vector<std::uint8_t> bytes) {
    point.checkpoint_bytes = std::max(point.checkpoint_bytes, bytes.size());
  };
  CYCLESTREAM_CHECK(
      stream::RunPassesChecked(s, &counter, {.on_checkpoint = track_max})
          .ok());
  snapshot::SnapshotWriter w;
  counter.Serialize(w);
  point.payload_bytes = w.payload_size();
  point.audited_bytes = counter.memory_domain()->live_bytes();
  return point;
}

}  // namespace

int Main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseOptions(argc, argv);
  bench::PrintHeader(
      opts, "Snapshot size: checkpoint = message = state (Section 5.1)",
      "serialized state at m' = C*m/T^{2/3} shrinks as T^{-2/3}; payload "
      "tracks audited bytes; protocol wire tracks self-reported space");

  const std::size_t target_edges = opts.full ? 400000 : 120000;
  std::vector<std::size_t> cliques =
      opts.full ? std::vector<std::size_t>{24, 34, 48, 68, 96, 136, 192}
                : std::vector<std::size_t>{24, 40, 64, 104, 168};

  bench::Table table(opts, {{"T", 10, bench::kColInt},
                            {"sample", 10, bench::kColInt},
                            {"payload", 10, bench::kColInt},
                            {"audited", 10, bench::kColInt},
                            {"ratio", 8, 3},
                            {"ckpt_env", 10, bench::kColInt}});
  table.PrintHeader();

  std::vector<double> t_values;
  std::vector<double> payloads;
  std::vector<double> auditeds;
  bool payload_tracks_audit = true;
  for (std::size_t c : cliques) {
    Graph g = MakeWorkload(c, target_edges);
    const std::size_t t_count = c * (c - 1) * (c - 2) / 6;
    const std::size_t m = g.num_edges();
    const std::size_t sample = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               4.0 * static_cast<double>(m) /
               std::pow(static_cast<double>(t_count), 2.0 / 3.0)));
    SizePoint p = MeasureOne(g, t_count, sample);
    const double ratio = p.audited_bytes == 0
                             ? 0.0
                             : static_cast<double>(p.payload_bytes) /
                                   static_cast<double>(p.audited_bytes);
    // The payload re-encodes the live containers: same order of magnitude,
    // bounded framing overhead.
    if (p.payload_bytes > 2 * p.audited_bytes + 4096 ||
        4 * p.payload_bytes + 4096 < p.audited_bytes) {
      payload_tracks_audit = false;
    }
    t_values.push_back(static_cast<double>(t_count));
    payloads.push_back(static_cast<double>(p.payload_bytes));
    auditeds.push_back(static_cast<double>(p.audited_bytes));
    table.PrintRow({p.t_count, p.sample, p.payload_bytes, p.audited_bytes,
                    ratio, p.checkpoint_bytes});
  }
  bench::FitCurve("snapshot_payload_vs_T", t_values, payloads, -2.0 / 3.0);
  const double slope = bench::LogLogSlope(t_values, payloads);
  const double audited_slope = bench::LogLogSlope(t_values, auditeds);
  bench::Note(opts,
              "\nlog-log slope vs T: payload %.3f, audited %.3f "
              "(paper space bound -2/3; state carries an O(n) floor)\n",
              slope, audited_slope);
  // Two acceptance checks: the payload must decay with T in the sample-
  // dominated regime, and it must decay at the same rate as the audited
  // live bytes it flattens (same state, two measurements).
  const bool slope_ok =
      slope < -0.45 && std::abs(slope - audited_slope) < 0.15;
  bench::Note(opts,
              "%s: payload decays with T and matches the audited-space "
              "exponent\n",
              slope_ok ? "PASS" : "FAIL");
  bench::Note(opts, "%s: payload within framing slack of audited bytes\n",
              payload_tracks_audit ? "PASS" : "FAIL");

  // Protocol wire vs self-reported space for the same gadget run.
  bench::Note(opts,
              "\nSerialized protocol: envelope wire vs CurrentSpaceBytes "
              "messages (3-DISJ gadget)\n");
  bench::Table wire_table(opts, {{"sample", 10, bench::kColInt},
                                 {"wire_max", 10, bench::kColInt},
                                 {"space_max", 10, bench::kColInt},
                                 {"ratio", 8, 3}});
  wire_table.PrintHeader();
  bool wire_tracks_space = true;
  auto inst = lowerbound::ThreeDisjInstance::Random(opts.full ? 60u : 24u,
                                                    true, 5);
  lowerbound::Gadget gadget = lowerbound::BuildThreeDisjGadget(inst, 4);
  for (std::size_t sample : {8u, 32u, 128u, 512u}) {
    core::TriangleDistinguisherOptions options;
    options.sample_size = sample;
    options.seed = 11;
    core::TriangleDistinguisherResult result;
    lowerbound::ProtocolRun serialized =
        lowerbound::RunSerializedDistinguisherProtocol(gadget, options, 7,
                                                       &result);
    core::TriangleDistinguisher monolithic(options);
    lowerbound::ProtocolRun reported =
        lowerbound::RunProtocol(gadget, &monolithic, 7);
    const double ratio =
        reported.max_message_bytes == 0
            ? 0.0
            : static_cast<double>(serialized.max_message_bytes) /
                  static_cast<double>(reported.max_message_bytes);
    // Two measurements of one state: the flat encoding may pack pointers
    // away (smaller) or carry prefixes (larger), but never by an order of
    // magnitude.
    if (ratio > 3.0 || (ratio != 0.0 && ratio < 0.1)) {
      wire_tracks_space = false;
    }
    wire_table.PrintRow({sample, serialized.max_message_bytes,
                         reported.max_message_bytes, ratio});
  }
  bench::Note(opts,
              "%s: protocol envelope sizes track self-reported message "
              "space\n",
              wire_tracks_space ? "PASS" : "FAIL");
  return (slope_ok && payload_tracks_audit && wire_tracks_space) ? 0 : 1;
}

}  // namespace cyclestream

int main(int argc, char** argv) { return cyclestream::Main(argc, argv); }
