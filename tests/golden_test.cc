// Golden fixtures: estimates, run reports and checkpoint bytes pinned
// across commits.
//
// The chaos, round-trip and fuzz suites show that the system agrees with
// itself; none of them notices a change that shifts every run the same
// way. This suite pins one checked run per estimator on a fixed
// (generator, seed, budget): the hexfloat digest of the result, every
// RunReport field, and the count, total size and CRC-32 of the checkpoint
// envelopes the run emits. One version-1 envelope from the middle of each
// run is committed under tests/golden/, and resuming it must reach the
// pinned digest, so checkpoints written by an older build stay readable.
//
// A mismatch prints the actual values as a table row. The version-1
// envelopes are never rewritten: a later snapshot version adds its own
// fixtures beside them.

#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/random_order_triangle.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/driver.h"
#include "stream/random_order_stream.h"
#include "test_util.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {
namespace {

using testing_util::Digest;
using testing_util::SnapshotEstimator;
using testing_util::SnapshotEstimators;

// The fixed inputs every pinned value below was generated from.
constexpr std::uint64_t kGraphSeed = 7;
constexpr std::uint64_t kStreamSeed = 7;
constexpr std::uint64_t kEstimatorSeed = 7;
constexpr std::size_t kRandomOrderPrefix = 10;

Graph GoldenGraph() { return gen::ErdosRenyiGnp(16, 0.4, kGraphSeed); }

// Everything one checked run pins.
struct Golden {
  std::string name;
  std::string digest;
  std::size_t reported_peak_bytes = 0;
  std::size_t audited_peak_bytes = 0;
  std::size_t max_divergence_bytes = 0;
  std::size_t pairs_processed = 0;
  int passes_requested = 0;
  // {reported_peak_bytes, audited_peak_bytes, pairs_processed} per pass.
  std::vector<std::array<std::size_t, 3>> per_pass;
  std::size_t envelopes = 0;
  std::size_t envelope_bytes = 0;
  std::uint32_t envelope_crc = 0;
};

// clang-format off
const Golden kPinned[] = {
    {"exact-stream", "24|", 1064, 1496, 441, 80, 1, {{1064, 1496, 80}}, 16, 11235, 0x72ea232c},
    {"one-pass-triangle", "0x1.aaaaaaaaaaaabp+4|40|6|9|0x1.1c71c71c71c72p+2|", 1376, 1704, 328, 80, 1, {{1376, 1704, 80}}, 16, 16802, 0x5cdae1ba},
    {"triangle-distinguisher", "1|0x1.faaaaaaaaaaabp+4|40|19|8|", 1040, 1432, 392, 160, 2, {{1024, 1408, 80}, {1040, 1432, 80}}, 32, 31688, 0x249735ee},
    {"two-pass-triangle", "0x1.cp+4|40|20|10|20|20|0|7|0x1p+2|", 8184, 8540, 688, 160, 2, {{6680, 7104, 80}, {8184, 8540, 80}}, 32, 99085, 0x114e01d0},
    {"wedge-sampling", "0x1.4855555555556p+5|197|12|5|0x1.4p-1|", 880, 984, 104, 80, 1, {{880, 984, 80}}, 16, 15872, 0x1c189939},
    {"one-pass-four-cycle", "0x1.5aaaaaaaaaaabp+4|40|1|9|9|0x1.5aaaaaaaaaaabp+4|", 3856, 4536, 732, 80, 1, {{3856, 4536, 80}}, 16, 29381, 0x97609b31},
    {"two-pass-four-cycle", "0x1.5aaaaaaaaaaaap+7|0x1.c2aaaaaaaaaaap+5|40|10|12|10|13|0|0x1.1555555555555p+4|", 1872, 2116, 316, 160, 2, {{1568, 1788, 80}, {1872, 2116, 80}}, 32, 33304, 0x69c3c87c},
    {"random-order-triangle", "0x1.5f49f49f49f4ap+5|40|6|10|0x1.d4629b7f0d463p+2|", 952, 1160, 208, 40, 1, {{952, 1160, 40}}, 36, 26472, 0x849981df},
};
// clang-format on

const Golden& PinnedFor(const std::string& name) {
  for (const Golden& g : kPinned) {
    if (g.name == name) return g;
  }
  ADD_FAILURE() << "no pinned row for " << name;
  return kPinned[0];
}

// One line holding every pinned value, in the table's initializer syntax,
// so a mismatch shows the actual row ready to compare.
std::string Row(const Golden& g) {
  std::ostringstream out;
  out << "{\"" << g.name << "\", \"" << g.digest << "\", "
      << g.reported_peak_bytes << ", " << g.audited_peak_bytes << ", "
      << g.max_divergence_bytes << ", " << g.pairs_processed << ", "
      << g.passes_requested << ", {";
  for (std::size_t i = 0; i < g.per_pass.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "{" << g.per_pass[i][0] << ", "
        << g.per_pass[i][1] << ", " << g.per_pass[i][2] << "}";
  }
  out << "}, " << g.envelopes << ", " << g.envelope_bytes << ", 0x"
      << std::hex << g.envelope_crc << "},";
  return out.str();
}

void FillReport(const RunReport& report, Golden* g) {
  g->reported_peak_bytes = report.reported_peak_bytes;
  g->audited_peak_bytes = report.audited_peak_bytes;
  g->max_divergence_bytes = report.max_divergence_bytes;
  g->pairs_processed = report.pairs_processed;
  g->passes_requested = report.passes_requested;
  g->per_pass.clear();
  for (const PassReport& pass : report.per_pass) {
    g->per_pass.push_back({pass.reported_peak_bytes, pass.audited_peak_bytes,
                           pass.pairs_processed});
  }
}

std::string GoldenPath(const std::string& name) {
  return std::string(CYCLESTREAM_GOLDEN_DIR) + "/" + name + ".snap";
}

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

using Factory = std::function<std::unique_ptr<StreamAlgorithm>()>;
using Digester = std::function<std::string(StreamAlgorithm*)>;

// Runs `name` once with checkpoints, compares against its pinned row, then
// resumes a fresh instance from the committed mid-run envelope.
template <typename StreamT>
void CheckGolden(const std::string& name, const StreamT& stream,
                 const Factory& make, const Digester& digest) {
  SCOPED_TRACE(name);
  std::vector<std::vector<std::uint8_t>> envelopes;
  std::unique_ptr<StreamAlgorithm> algo = make();
  auto collect = [&envelopes](int, std::size_t,
                              std::vector<std::uint8_t> bytes) {
    envelopes.push_back(std::move(bytes));
  };
  StatusOr<RunReport> run =
      RunPassesChecked(stream, algo.get(), {.on_checkpoint = collect});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_FALSE(envelopes.empty());

  Golden actual;
  actual.name = name;
  actual.digest = digest(algo.get());
  FillReport(*run, &actual);
  std::vector<std::uint8_t> all;
  for (const std::vector<std::uint8_t>& e : envelopes) {
    all.insert(all.end(), e.begin(), e.end());
  }
  actual.envelopes = envelopes.size();
  actual.envelope_bytes = all.size();
  actual.envelope_crc = snapshot::Crc32(all);

  const Golden& pinned = PinnedFor(name);
  EXPECT_EQ(Row(actual), Row(pinned)) << "actual row:\n    " << Row(actual);

  const std::vector<std::uint8_t>& mid = envelopes[envelopes.size() / 2];
  const std::vector<std::uint8_t> committed = ReadFile(GoldenPath(name));
  ASSERT_FALSE(committed.empty())
      << "missing tests/golden/" << name << ".snap";
  EXPECT_EQ(committed, mid) << "mid-run envelope drifted from the fixture";

  std::unique_ptr<StreamAlgorithm> resumed = make();
  StatusOr<RunReport> report =
      RunPassesChecked(stream, resumed.get(), {.resume_from = committed});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  Golden from_fixture = actual;
  from_fixture.digest = digest(resumed.get());
  FillReport(*report, &from_fixture);
  EXPECT_EQ(Row(from_fixture), Row(pinned)) << "resumed from the fixture";
}

TEST(Golden, SnapshotEstimatorsMatchPinnedValues) {
  const Graph g = GoldenGraph();
  const AdjacencyListStream stream(&g, kStreamSeed);
  for (const SnapshotEstimator& est : SnapshotEstimators(kEstimatorSeed)) {
    CheckGolden(est.name, stream, est.make, est.digest);
  }
}

TEST(Golden, RandomOrderTriangleMatchesPinnedValues) {
  const Graph g = GoldenGraph();
  const RandomOrderStream stream(&g, kStreamSeed);
  core::RandomOrderTriangleOptions options;
  options.prefix_size = kRandomOrderPrefix;
  options.seed = kEstimatorSeed;
  CheckGolden(
      "random-order-triangle", stream,
      [options] {
        return std::make_unique<core::RandomOrderTriangleCounter>(options);
      },
      [](StreamAlgorithm* a) {
        const core::RandomOrderTriangleResult r =
            static_cast<core::RandomOrderTriangleCounter*>(a)->result();
        return Digest(r.estimate, r.edge_count, r.detections, r.prefix_edges,
                      r.scale);
      });
}

}  // namespace
}  // namespace stream
}  // namespace cyclestream
