// Shared helpers for cyclestream tests.
//
// Beyond the small named graphs and statistics, this hosts the estimator
// and generator-family matrices shared by the snapshot/chaos/service test
// suites: `SnapshotEstimators` enumerates every estimator with a
// Serialize/Restore contract (factory + bit-exact result digest), and the
// family helpers produce one representative graph per generator family at
// the sizes each suite wants. Keeping them here means a new estimator or
// family lights up the chaos matrix, the fuzz matrix, the round-trip
// matrix, and the service tests with one edit.

#ifndef CYCLESTREAM_TESTS_TEST_UTIL_H_
#define CYCLESTREAM_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
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
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "gen/projective_plane.h"
#include "graph/graph.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/contract.h"
#include "stream/driver.h"

namespace cyclestream {
namespace testing_util {

/// Runs `algo` over `g` streamed with `stream_seed`; returns the run report.
inline stream::RunReport RunOn(const Graph& g, stream::StreamAlgorithm* algo,
                               std::uint64_t stream_seed) {
  stream::AdjacencyListStream s(&g, stream_seed);
  return stream::RunPasses(s, algo);
}

/// Forwards every callback to `inner` and records one point each time the
/// driver reads its CurrentSpaceBytes(), which `stream::internal::
/// SampleSpace` does once per sample: at every list end and pass end. Its
/// memory domain is the inner algorithm's, so a run's report is the one the
/// inner algorithm alone would get.
class SpaceRecorder final : public stream::StreamAlgorithm {
 public:
  struct Point {
    int pass = 0;
    std::uint64_t pairs = 0;  // pairs delivered so far in the pass
    std::size_t reported = 0;
    std::size_t live = 0;  // the memory domain's live bytes (0 without one)
  };

  explicit SpaceRecorder(stream::StreamAlgorithm* inner) : inner_(inner) {}

  int passes() const override { return inner_->passes(); }
  bool AcceptsModel(stream::StreamModel model) const override {
    return inner_->AcceptsModel(model);
  }
  void BeginPass(int pass) override {
    pass_ = pass;
    pairs_ = 0;
    inner_->BeginPass(pass);
  }
  void BeginList(VertexId u) override { inner_->BeginList(u); }
  void OnPair(VertexId u, VertexId v) override {
    ++pairs_;
    inner_->OnPair(u, v);
  }
  void OnListBatch(VertexId u, std::span<const VertexId> list) override {
    pairs_ += list.size();
    inner_->OnListBatch(u, list);
  }
  void EndList(VertexId u) override { inner_->EndList(u); }
  void EndPass(int pass) override { inner_->EndPass(pass); }
  std::size_t CurrentSpaceBytes() const override {
    const std::size_t reported = inner_->CurrentSpaceBytes();
    const obs::MemoryDomain* domain = inner_->memory_domain();
    points_.push_back(
        {pass_, pairs_, reported, domain ? domain->live_bytes() : 0});
    return reported;
  }
  const obs::MemoryDomain* memory_domain() const override {
    return inner_->memory_domain();
  }

  const std::vector<Point>& points() const { return points_; }

 private:
  stream::StreamAlgorithm* inner_;
  int pass_ = 0;
  std::uint64_t pairs_ = 0;
  mutable std::vector<Point> points_;
};

/// Small named graphs used across tests.
inline Graph Triangle() {
  return Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
}

inline Graph TwoTrianglesSharedEdge() {
  // Triangles {0,1,2} and {0,1,3} share edge {0,1}.
  return Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {1, 3}, {0, 3}});
}

inline Graph Square() {
  return Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
}

/// Mean of a vector.
inline double Mean(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
}

/// Sample standard deviation.
inline double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mu = Mean(xs);
  double ss = 0;
  for (double x : xs) ss += (x - mu) * (x - mu);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

/// Bit-exact digest of result fields: doubles render as hexfloat, so one
/// ULP of drift fails the comparison.
template <typename... Ts>
std::string Digest(const Ts&... fields) {
  std::ostringstream out;
  out << std::hexfloat;
  ((out << fields << '|'), ...);
  return out.str();
}

/// An estimator under snapshot/chaos testing: a factory producing fresh
/// same-options instances, and a digest capturing the complete result.
struct SnapshotEstimator {
  std::string name;
  std::function<std::unique_ptr<stream::StreamAlgorithm>()> make;
  std::function<std::string(stream::StreamAlgorithm*)> digest;
};

/// Every estimator with a Serialize/Restore contract, with small
/// sample/reservoir sizes so sampling paths and evictions are exercised on
/// test-sized graphs. `seed` perturbs each estimator's private seed.
inline std::vector<SnapshotEstimator> SnapshotEstimators(std::uint64_t seed) {
  using stream::StreamAlgorithm;
  std::vector<SnapshotEstimator> out;
  out.push_back(
      {"exact-stream",
       [] { return std::make_unique<core::ExactStreamTriangleCounter>(); },
       [](StreamAlgorithm* a) {
         auto* c = static_cast<core::ExactStreamTriangleCounter*>(a);
         return Digest(c->triangles());
       }});
  {
    core::OnePassTriangleOptions options;
    options.sample_size = 9;
    options.seed = seed + 1;
    out.push_back(
        {"one-pass-triangle",
         [options] {
           return std::make_unique<core::OnePassTriangleCounter>(options);
         },
         [](StreamAlgorithm* a) {
           auto r = static_cast<core::OnePassTriangleCounter*>(a)->result();
           return Digest(r.estimate, r.edge_count, r.detections,
                         r.edge_sample_size, r.k);
         }});
  }
  {
    core::TriangleDistinguisherOptions options;
    options.sample_size = 8;
    options.seed = seed + 2;
    out.push_back(
        {"triangle-distinguisher",
         [options] {
           return std::make_unique<core::TriangleDistinguisher>(options);
         },
         [](StreamAlgorithm* a) {
           auto r = static_cast<core::TriangleDistinguisher*>(a)->result();
           return Digest(r.found_triangle, r.naive_estimate, r.edge_count,
                         r.incidences, r.edge_sample_size);
         }});
  }
  {
    core::TwoPassTriangleOptions options;
    options.sample_size = 10;
    options.seed = seed + 3;
    out.push_back(
        {"two-pass-triangle",
         [options] {
           return std::make_unique<core::TwoPassTriangleCounter>(options);
         },
         [](StreamAlgorithm* a) {
           auto r = static_cast<core::TwoPassTriangleCounter*>(a)->result();
           return Digest(r.estimate, r.edge_count, r.candidate_pairs,
                         r.edge_sample_size, r.pair_sample_size, r.pairs_live,
                         r.q_overflowed, r.rho_hits, r.k);
         }});
  }
  {
    core::WedgeSamplingOptions options;
    options.reservoir_size = 12;
    options.seed = seed + 4;
    out.push_back(
        {"wedge-sampling",
         [options] {
           return std::make_unique<core::WedgeSamplingTriangleCounter>(
               options);
         },
         [](StreamAlgorithm* a) {
           auto r =
               static_cast<core::WedgeSamplingTriangleCounter*>(a)->result();
           return Digest(r.estimate, r.wedge_count, r.sampled, r.closed,
                         r.transitivity_estimate);
         }});
  }
  {
    core::OnePassFourCycleOptions options;
    options.sample_size = 9;
    options.seed = seed + 5;
    out.push_back(
        {"one-pass-four-cycle",
         [options] {
           return std::make_unique<core::OnePassFourCycleCounter>(options);
         },
         [](StreamAlgorithm* a) {
           auto r = static_cast<core::OnePassFourCycleCounter*>(a)->result();
           return Digest(r.estimate, r.edge_count, r.detections,
                         r.edge_sample_size, r.wedge_count, r.k_squared);
         }});
  }
  {
    core::FourCycleOptions options;
    options.sample_size = 10;
    options.seed = seed + 6;
    out.push_back(
        {"two-pass-four-cycle",
         [options] {
           return std::make_unique<core::TwoPassFourCycleCounter>(options);
         },
         [](StreamAlgorithm* a) {
           auto r = static_cast<core::TwoPassFourCycleCounter*>(a)->result();
           return Digest(r.estimate, r.multiplicity_estimate, r.edge_count,
                         r.edge_sample_size, r.wedge_count, r.distinct_cycles,
                         r.wedge_incidences, r.wedge_cap_hit, r.k_squared);
         }});
  }
  return out;
}

/// Asserts two run reports equal field-by-field, per-pass included.
inline void ExpectReportsEqual(const stream::RunReport& got,
                               const stream::RunReport& want) {
  EXPECT_EQ(got.reported_peak_bytes, want.reported_peak_bytes);
  EXPECT_EQ(got.audited_peak_bytes, want.audited_peak_bytes);
  EXPECT_EQ(got.max_divergence_bytes, want.max_divergence_bytes);
  EXPECT_EQ(got.pairs_processed, want.pairs_processed);
  EXPECT_EQ(got.passes_requested, want.passes_requested);
  ASSERT_EQ(got.per_pass.size(), want.per_pass.size());
  for (std::size_t i = 0; i < got.per_pass.size(); ++i) {
    EXPECT_EQ(got.per_pass[i].reported_peak_bytes,
              want.per_pass[i].reported_peak_bytes)
        << "pass " << i;
    EXPECT_EQ(got.per_pass[i].audited_peak_bytes,
              want.per_pass[i].audited_peak_bytes)
        << "pass " << i;
    EXPECT_EQ(got.per_pass[i].pairs_processed,
              want.per_pass[i].pairs_processed)
        << "pass " << i;
  }
}

/// Overwrites the little-endian u64 at `offset` of a snapshot buffer.
inline void PatchU64(std::span<std::uint8_t> bytes, std::size_t offset,
                     std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Recomputes an edited envelope's trailing CRC-32, so the edit gets past
/// the integrity check in `SnapshotReader::Open` and reaches the decoders.
inline void Reseal(std::span<std::uint8_t> envelope) {
  const std::uint32_t crc =
      snapshot::Crc32(envelope.first(envelope.size() - 4));
  for (std::size_t i = 0; i < 4; ++i) {
    envelope[envelope.size() - 4 + i] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// Stamps `version` into an envelope's version word and reseals it. The
/// version is CRC-covered, so the reader then decides on the version check
/// itself, not merely via the CRC.
inline void Restamp(std::span<std::uint8_t> envelope, std::uint32_t version) {
  for (std::size_t i = 0; i < 4; ++i) {
    envelope[8 + i] = static_cast<std::uint8_t>(version >> (8 * i));
  }
  Reseal(envelope);
}

/// Envelope offset of a driver checkpoint's pass cursor: the first payload
/// field, after the envelope header.
inline constexpr std::size_t kCheckpointPassOffset = 20;

/// Envelope offset of a driver checkpoint's per-pass count: the pass and
/// list cursor, then five RunReport scalars.
inline constexpr std::size_t kCheckpointPassCountOffset =
    kCheckpointPassOffset + 2 * 8 + 5 * 8;

/// Envelope offset of a driver checkpoint's contract section: after the
/// per-pass count, three u64 fields per pass the run has begun.
inline constexpr std::size_t CheckpointContractOffset(std::size_t passes) {
  return kCheckpointPassCountOffset + 8 + passes * 3 * 8;
}

/// Offset, within a contract section, of the pass field (stored as
/// pass + 1): after the graph shape, the model descriptor, the absent
/// first violation and the counters (five, then one per violation kind).
inline constexpr std::size_t kContractPassOffset =
    2 * 8 + (1 + 8 + 8) + 1 + (5 + stream::kNumViolationKinds) * 8;

/// Offset, within a contract section, of the in-pass byte.
inline constexpr std::size_t kContractInPassOffset = kContractPassOffset + 8;

/// Offset, within a contract section, of the pass's stream position.
inline constexpr std::size_t kContractPositionOffset =
    kContractInPassOffset + 1;

/// Offset, within an edge-stream contract section, of the count of edges
/// seen this pass: after the position and the declared-order flag.
inline constexpr std::size_t kEdgeContractSeenCountOffset =
    kContractPositionOffset + 8 + 1;

/// Reads the little-endian u64 at `offset` of a snapshot buffer.
inline std::uint64_t PeekU64(std::span<const std::uint8_t> bytes,
                             std::size_t offset) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    value |= std::uint64_t{bytes[offset + i]} << (8 * i);
  }
  return value;
}

/// The exact-stream counter's section as snapshot versions 1-6 laid it
/// out, after the first `lists` lists of `order` over `g`, sealed as a
/// version-6 envelope: the pair count, the triangles whose three lists
/// have ended, the current list's capacity and the edge map's bucket count
/// (both at 2^40, which a restore must never reserve), then the edge map:
/// a count, and each seen edge's key, ascending, with the number of its
/// copies the lists delivered.
inline std::vector<std::uint8_t> ExactStreamVersion6(
    const Graph& g, std::span<const VertexId> order, std::size_t lists) {
  std::vector<bool> ended(g.num_vertices(), false);
  std::map<EdgeKey, std::uint8_t> seen;
  std::uint64_t pairs = 0;
  for (std::size_t i = 0; i < lists; ++i) {
    ended[order[i]] = true;
    for (VertexId v : g.neighbors(order[i])) {
      ++pairs;
      ++seen[MakeEdgeKey(order[i], v)];
    }
  }
  std::uint64_t triangles = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      for (VertexId w : g.neighbors(u)) {
        triangles += u < v && v < w && ended[u] && ended[v] && ended[w] &&
                     g.HasEdge(v, w);
      }
    }
  }
  snapshot::SnapshotWriter w;
  snapshot::Saver ar(w);
  ar.U64(pairs);
  ar.U64(triangles);
  ar.U64(std::uint64_t{1} << 40);
  ar.U64(std::uint64_t{1} << 40);
  ar.Map(
      seen, [](EdgeKey) -> std::uint8_t* { return nullptr; },
      [](auto& ar, std::uint8_t copies) { ar.U8(copies); });
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  Restamp(bytes, 6);
  return bytes;
}

/// A named generator family producing one seeded graph.
struct GraphFamily {
  const char* name;
  std::function<Graph(std::uint64_t)> make;
};

/// Small graphs (8-16 vertices), one per family — the chaos/fuzz/round-trip
/// matrices crash or corrupt at every list boundary, so size is the cost
/// knob. The deterministic families vary only through the stream order.
inline std::vector<GraphFamily> GeneratorFamilies() {
  return {
      {"complete", [](std::uint64_t) { return gen::Complete(8); }},
      {"erdos-renyi",
       [](std::uint64_t s) { return gen::ErdosRenyiGnp(14, 0.35, s); }},
      {"barabasi-albert",
       [](std::uint64_t s) { return gen::BarabasiAlbert(14, 3, s); }},
      {"chung-lu",
       [](std::uint64_t s) {
         return gen::ChungLuPowerLaw(16, 4.0, 2.5, s + 1);
       }},
  };
}

/// Stream seeds shared by the per-family matrices.
inline constexpr std::uint64_t kFamilySeeds[] = {1, 17, 4242};

/// Medium graphs (60-80 vertices), one per generator family plus the
/// deterministic classics — the batch-equivalence matrix.
inline std::vector<Graph> DenseFamilyGraphs(std::uint64_t seed) {
  std::vector<Graph> graphs;
  graphs.push_back(gen::ErdosRenyiGnp(60, 0.15, seed));
  graphs.push_back(gen::BarabasiAlbert(80, 3, seed));
  graphs.push_back(gen::ChungLuPowerLaw(80, 6.0, 2.3, seed));
  graphs.push_back(gen::Petersen());
  gen::PlantedBackground bg;
  bg.stars = 4;
  bg.star_degree = 5;
  graphs.push_back(gen::PlantedHeavyEdgeTriangles(12, bg));
  graphs.push_back(gen::ProjectivePlaneGraph(3));
  return graphs;
}

/// Larger graphs (80-100 vertices) covering sparse random,
/// preferential-attachment, heavy-tailed, and planted-structure streams —
/// the space-audit matrix.
inline std::vector<Graph> AuditFamilyGraphs(std::uint64_t seed) {
  std::vector<Graph> graphs;
  graphs.push_back(gen::ErdosRenyiGnp(80, 0.12, seed));
  graphs.push_back(gen::BarabasiAlbert(100, 4, seed));
  graphs.push_back(gen::ChungLuPowerLaw(100, 6.0, 2.3, seed));
  gen::PlantedBackground bg;
  bg.stars = 6;
  bg.star_degree = 8;
  graphs.push_back(gen::PlantedHeavyEdgeTriangles(16, bg));
  return graphs;
}

}  // namespace testing_util
}  // namespace cyclestream

#endif  // CYCLESTREAM_TESTS_TEST_UTIL_H_
