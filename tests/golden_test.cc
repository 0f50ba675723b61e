// Golden fixtures: estimates, run reports and checkpoint bytes pinned
// across commits.
//
// The chaos, round-trip and fuzz suites show that the system agrees with
// itself; none of them notices a change that shifts every run the same
// way. This suite pins one checked run per estimator on a fixed
// (generator, seed, budget): the hexfloat digest of the result, every
// RunReport field, and the count, total size and a content digest of the
// checkpoint envelopes the run emits. Each snapshot version commits the
// envelope from the middle of each run: tests/golden/<name>.snap for
// version 1, tests/golden/v<N>/<name>.snap for each later version N. The
// current version's fixture must equal this build's mid-run envelope, and
// resuming every version's fixture must reach the pinned digest (or, where
// a layout change moves it, its older-resume pin), so checkpoints written
// by an older build stay readable.
//
// A mismatch prints the actual values as a table row. Fixtures are never
// rewritten: a later snapshot version adds its own beside them.
//
// A sweep over graphs, seeds and budgets pins two digests per kind, so a
// refactor that must move nothing is checked on more than one run each.
//
// Each contract's verdicts are pinned the same way, in
// tests/golden/adjacency-contract-verdicts.txt and
// tests/golden/edge-contract-verdicts.txt: one line per (stream, delivery
// path) with the Status, the ok-prefix and every counter.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/arbitrary_triangle.h"
#include "core/random_order_triangle.h"
#include "gen/barabasi_albert.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/arbitrary_stream.h"
#include "stream/contract.h"
#include "stream/driver.h"
#include "stream/fault_injection.h"
#include "stream/random_order_stream.h"
#include "stream/validator.h"
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

// The RunReport fields a row pins.
struct PinnedReport {
  std::size_t reported_peak_bytes = 0;
  std::size_t audited_peak_bytes = 0;
  std::size_t max_divergence_bytes = 0;
  std::size_t pairs_processed = 0;
  int passes_requested = 0;
  // {reported_peak_bytes, audited_peak_bytes, pairs_processed} per pass.
  std::vector<std::array<std::size_t, 3>> per_pass;
};

// Everything one checked run pins.
struct Golden {
  std::string name;
  std::string digest;
  PinnedReport report;
  std::size_t envelopes = 0;
  std::size_t envelope_bytes = 0;
  std::uint32_t envelope_digest = 0;  // EnvelopeDigest
};

// clang-format off
const Golden kPinned[] = {
    {"exact-stream", "24|", {960, 960, 0, 80, 1, {{960, 960, 80}}}, 16, 11396, 0xbf200763},
    {"one-pass-triangle", "0x1.aaaaaaaaaaaabp+4|40|6|9|0x1.1c71c71c71c72p+2|", {1264, 1576, 312, 80, 1, {{1264, 1576, 80}}}, 16, 16674, 0x26bd80c},
    {"triangle-distinguisher", "1|0x1.faaaaaaaaaaabp+4|40|19|8|", {1044, 1372, 336, 160, 2, {{1044, 1372, 80}, {996, 1332, 80}}}, 32, 31432, 0xc22adc6f},
    {"two-pass-triangle", "0x1.cp+4|40|20|10|20|20|0|7|0x1p+2|", {4908, 5664, 860, 160, 2, {{3972, 4788, 80}, {4908, 5664, 80}}}, 32, 77116, 0x893162e1},
    {"wedge-sampling", "0x0p+0|197|12|0|0x0p+0|", {848, 952, 108, 80, 1, {{848, 952, 80}}}, 16, 15624, 0xc3ba4da},
    {"one-pass-four-cycle", "0x1.5aaaaaaaaaaabp+4|40|1|9|9|0x1.5aaaaaaaaaaabp+4|", {3768, 4432, 716, 80, 1, {{3768, 4432, 80}}}, 16, 29253, 0xcb23fb72},
    {"two-pass-four-cycle", "0x1.5aaaaaaaaaaaap+7|0x1.c2aaaaaaaaaaap+5|40|10|12|10|13|0|0x1.1555555555555p+4|", {1664, 1900, 308, 160, 2, {{1424, 1636, 80}, {1664, 1900, 80}}}, 32, 33048, 0x483e1625},
    {"random-order-triangle", "0x1.5f49f49f49f4ap+5|40|6|10|0x1.d4629b7f0d463p+2|", {952, 1160, 208, 40, 1, {{952, 1160, 40}}}, 36, 25896, 0x70e4608a},
};

// Where resuming an older version's fixture does not reach the row. A
// resume restores the report that build measured up to its checkpoint.
// Version 2 changed only the two-pass triangle layout, and with it that
// counter's space, so its version-1 resume keeps the row's digest but
// pass 0's peaks are version 1's. Version 3 changed only the edge-stream
// contract's layout, which no report measures. Version 4 added the wedge
// sampler's skip state; an older wedge fixture draws it on restore, from
// its exact law but with other draws than the run that wrote it, so the
// rest of its run admits other wedges. Version 5 dropped four estimators'
// touched lists, and with them bytes their meters counted, so their
// version-1 to -4 resumes keep the digest but restore the peaks those
// builds reported up to the checkpoint. Version 6 kept every layout but
// gave the bottom-k sampler a dense member table, which the five
// estimators built on it meter differently, so their older resumes keep
// the digest too and restore the older builds' peaks. Version 7 replaced
// the exact-stream counter's per-edge map by its stored lists; its older
// fixtures restore the map as pending lists and keep the digest, but the
// audited peak and divergence the older build measured up to the
// checkpoint. A row through an earlier version is listed first.
struct OlderResume {
  const char* name;
  int through_version;  // fixtures of versions 1 to this one
  const char* digest;
  PinnedReport report;
};
const OlderResume kPinnedOlderResume[] = {
    {"two-pass-triangle", 1, "0x1.cp+4|40|20|10|20|20|0|7|0x1p+2|", {6936, 7360, 816, 160, 2, {{6680, 7104, 80}, {6936, 7360, 80}}}},
    {"two-pass-triangle", 5, "0x1.cp+4|40|20|10|20|20|0|7|0x1p+2|", {4908, 5664, 1004, 160, 2, {{3848, 4800, 80}, {4908, 5664, 80}}}},
    {"wedge-sampling", 3, "0x1.8ap+4|197|12|3|0x1.8p-2|", {848, 952, 104, 80, 1, {{848, 952, 80}}}},
    {"one-pass-triangle", 4, "0x1.aaaaaaaaaaaabp+4|40|6|9|0x1.1c71c71c71c72p+2|", {1376, 1704, 328, 80, 1, {{1376, 1704, 80}}}},
    {"one-pass-triangle", 5, "0x1.aaaaaaaaaaaabp+4|40|6|9|0x1.1c71c71c71c72p+2|", {1248, 1576, 328, 80, 1, {{1248, 1576, 80}}}},
    {"triangle-distinguisher", 4, "1|0x1.faaaaaaaaaaabp+4|40|19|8|", {1040, 1432, 392, 160, 2, {{1024, 1408, 80}, {1040, 1432, 80}}}},
    {"triangle-distinguisher", 5, "1|0x1.faaaaaaaaaaabp+4|40|19|8|", {1024, 1408, 392, 160, 2, {{1024, 1408, 80}, {996, 1368, 80}}}},
    {"one-pass-four-cycle", 4, "0x1.5aaaaaaaaaaabp+4|40|1|9|9|0x1.5aaaaaaaaaaabp+4|", {3832, 4536, 732, 80, 1, {{3832, 4536, 80}}}},
    {"one-pass-four-cycle", 5, "0x1.5aaaaaaaaaaabp+4|40|1|9|9|0x1.5aaaaaaaaaaabp+4|", {3768, 4412, 732, 80, 1, {{3768, 4412, 80}}}},
    {"two-pass-four-cycle", 4, "0x1.5aaaaaaaaaaaap+7|0x1.c2aaaaaaaaaaap+5|40|10|12|10|13|0|0x1.1555555555555p+4|", {1664, 1972, 316, 160, 2, {{1568, 1788, 80}, {1664, 1972, 80}}}},
    {"two-pass-four-cycle", 5, "0x1.5aaaaaaaaaaaap+7|0x1.c2aaaaaaaaaaap+5|40|10|12|10|13|0|0x1.1555555555555p+4|", {1664, 1900, 316, 160, 2, {{1440, 1660, 80}, {1664, 1900, 80}}}},
    {"exact-stream", 6, "24|", {960, 1248, 441, 80, 1, {{960, 1248, 80}}}},
};
// clang-format on

const Golden& PinnedFor(const std::string& name) {
  for (const Golden& g : kPinned) {
    if (g.name == name) return g;
  }
  ADD_FAILURE() << "no pinned row for " << name;
  return kPinned[0];
}

// The digest and report resuming `pinned`'s fixture of `version` reaches.
std::pair<std::string, PinnedReport> PinnedResume(const Golden& pinned,
                                                  int version) {
  for (const OlderResume& older : kPinnedOlderResume) {
    if (older.name == pinned.name && version <= older.through_version) {
      return {older.digest, older.report};
    }
  }
  return {pinned.digest, pinned.report};
}

std::string ReportRow(const PinnedReport& r) {
  std::ostringstream out;
  out << "{" << r.reported_peak_bytes << ", " << r.audited_peak_bytes << ", "
      << r.max_divergence_bytes << ", " << r.pairs_processed << ", "
      << r.passes_requested << ", {";
  for (std::size_t i = 0; i < r.per_pass.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "{" << r.per_pass[i][0] << ", "
        << r.per_pass[i][1] << ", " << r.per_pass[i][2] << "}";
  }
  out << "}}";
  return out.str();
}

// One line holding every pinned value, in the table's initializer syntax,
// so a mismatch shows the actual row ready to compare.
std::string Row(const Golden& g) {
  std::ostringstream out;
  out << "{\"" << g.name << "\", \"" << g.digest << "\", "
      << ReportRow(g.report) << ", " << g.envelopes << ", "
      << g.envelope_bytes << ", 0x" << std::hex << g.envelope_digest << "},";
  return out.str();
}

PinnedReport ReportOf(const RunReport& report) {
  PinnedReport r;
  r.reported_peak_bytes = report.reported_peak_bytes;
  r.audited_peak_bytes = report.audited_peak_bytes;
  r.max_divergence_bytes = report.max_divergence_bytes;
  r.pairs_processed = report.pairs_processed;
  r.passes_requested = report.passes_requested;
  for (const PassReport& pass : report.per_pass) {
    r.per_pass.push_back({pass.reported_peak_bytes, pass.audited_peak_bytes,
                          pass.pairs_processed});
  }
  return r;
}

// A CRC-32 of the envelopes' content. Each envelope ends with the CRC-32 of
// the bytes before it, which brings a CRC register to a fixed residue, so a
// CRC over whole envelopes would pin their lengths alone. This one leaves
// out each envelope's own checksum.
std::uint32_t EnvelopeDigest(
    const std::vector<std::vector<std::uint8_t>>& envelopes) {
  std::vector<std::uint8_t> content;
  for (const std::vector<std::uint8_t>& e : envelopes) {
    content.insert(content.end(), e.begin(), e.end() - 4);
  }
  return snapshot::Crc32(content);
}

// `name`'s committed mid-run envelope for a snapshot version: version 1's
// sit in tests/golden/, each later version's in its own subdirectory.
std::string GoldenPath(const std::string& name, int version) {
  const std::string dir =
      version == 1 ? "" : "v" + std::to_string(version) + "/";
  return std::string(CYCLESTREAM_GOLDEN_DIR) + "/" + dir + name + ".snap";
}

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

using Factory = std::function<std::unique_ptr<StreamAlgorithm>()>;
using Digester = std::function<std::string(StreamAlgorithm*)>;
using Envelopes = std::vector<std::vector<std::uint8_t>>;

// Runs `algo` over `stream` with a checkpoint at every list boundary and
// returns the envelopes.
template <typename StreamT>
Envelopes RunWithCheckpoints(const StreamT& stream, StreamAlgorithm* algo,
                             RunReport* report) {
  Envelopes envelopes;
  auto collect = [&envelopes](int, std::size_t,
                              std::vector<std::uint8_t> bytes) {
    envelopes.push_back(std::move(bytes));
  };
  StatusOr<RunReport> run =
      RunPassesChecked(stream, algo, {.on_checkpoint = collect});
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (run.ok()) *report = *run;
  return envelopes;
}

// Resumes a fresh instance from the fixture of `version` and compares its
// digest and report with the pinned ones.
template <typename StreamT>
void ExpectFixtureResumes(const StreamT& stream, const Factory& make,
                          const Digester& digest, const std::string& name,
                          int version, const std::string& want_digest,
                          const PinnedReport& want_report) {
  SCOPED_TRACE("resumed from the version-" + std::to_string(version) +
               " fixture");
  const std::vector<std::uint8_t> fixture =
      ReadFile(GoldenPath(name, version));
  ASSERT_FALSE(fixture.empty()) << "missing " << GoldenPath(name, version);
  std::unique_ptr<StreamAlgorithm> resumed = make();
  StatusOr<RunReport> report =
      RunPassesChecked(stream, resumed.get(), {.resume_from = fixture});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(digest(resumed.get()), want_digest);
  EXPECT_EQ(ReportRow(ReportOf(*report)), ReportRow(want_report));
}

// Runs `name` once with checkpoints, compares against its pinned row and
// the current version's fixture, then resumes a fresh instance from each
// version's fixture.
template <typename StreamT>
void CheckGolden(const std::string& name, const StreamT& stream,
                 const Factory& make, const Digester& digest) {
  SCOPED_TRACE(name);
  std::unique_ptr<StreamAlgorithm> algo = make();
  RunReport run;
  const Envelopes envelopes = RunWithCheckpoints(stream, algo.get(), &run);
  ASSERT_FALSE(envelopes.empty());

  Golden actual;
  actual.name = name;
  actual.digest = digest(algo.get());
  actual.report = ReportOf(run);
  actual.envelopes = envelopes.size();
  for (const std::vector<std::uint8_t>& e : envelopes) {
    actual.envelope_bytes += e.size();
  }
  actual.envelope_digest = EnvelopeDigest(envelopes);

  const Golden& pinned = PinnedFor(name);
  EXPECT_EQ(Row(actual), Row(pinned)) << "actual row:\n    " << Row(actual);

  const int current = static_cast<int>(snapshot::kSnapshotVersion);
  EXPECT_EQ(ReadFile(GoldenPath(name, current)),
            envelopes[envelopes.size() / 2])
      << "mid-run envelope drifted from the version-" << current
      << " fixture";
  for (int version = 1; version <= current; ++version) {
    const auto [want_digest, want_report] = PinnedResume(pinned, version);
    ExpectFixtureResumes(stream, make, digest, name, version, want_digest,
                         want_report);
  }
}

TEST(Golden, SnapshotEstimatorsMatchPinnedValues) {
  const Graph g = GoldenGraph();
  const AdjacencyListStream stream(&g, kStreamSeed);
  for (const SnapshotEstimator& est : SnapshotEstimators(kEstimatorSeed)) {
    CheckGolden(est.name, stream, est.make, est.digest);
  }
}

TEST(Golden, EnvelopeDigestCoversContent) {
  // One payload byte of a non-mid envelope changed and the envelope
  // resealed: the digest moves. A CRC over whole envelopes would not.
  const Graph g = GoldenGraph();
  const AdjacencyListStream stream(&g, kStreamSeed);
  const SnapshotEstimator est = SnapshotEstimators(kEstimatorSeed).front();
  std::unique_ptr<StreamAlgorithm> algo = est.make();
  RunReport run;
  Envelopes envelopes = RunWithCheckpoints(stream, algo.get(), &run);
  ASSERT_GT(envelopes.size(), 2u);
  const std::uint32_t before = EnvelopeDigest(envelopes);
  std::vector<std::uint8_t>& first = envelopes.front();
  first[snapshot::kEnvelopeBytes - 4] ^= 1;  // the first payload byte
  testing_util::Reseal(first);
  EXPECT_NE(EnvelopeDigest(envelopes), before);
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

// --- The sweep: every kind over a grid of graphs, seeds and budgets ---

// The golden rows pin one configuration per kind. A refactor that must
// keep every estimate, peak and checkpoint byte is held to a grid instead:
// two graphs from each of three generators, three stream seeds, four
// estimator seeds and six budgets m' per kind, 432 runs. Each kind folds its runs into two digests, one of
// the result fields and one of the run reports (peaks per pass) together
// with the envelope of the state each run ends in, so a change that moves
// only peaks updates one pin and says so.

// FNV-1a over bytes: a digest to compare across builds, not a secure hash.
class Fnv64 {
 public:
  void Add(std::span<const std::uint8_t> bytes) {
    for (std::uint8_t b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  void Add(const std::string& text) {
    Add(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size()));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct SweepPin {
  const char* name;
  std::uint64_t results;
  std::uint64_t reports_and_state;  // peaks and the final envelope
};

// clang-format off
const SweepPin kSweepPinned[] = {
    {"exact-stream", 0x9e2182a784fe8ca5, 0x4b82de6ba780d7f5},
    {"one-pass-triangle", 0x509f76649c4b5a26, 0x445d1455429c8b00},
    {"triangle-distinguisher", 0x2e457802c41845e, 0xbc35fceb065a1f36},
    {"two-pass-triangle", 0x3800bf8af7cdbbef, 0x8a1995c5631fd762},
    {"wedge-sampling", 0xcf9582ae0b74e350, 0x94f22f5d4f90a948},
    {"one-pass-four-cycle", 0xac0f5d59391019e6, 0xf373f45711b25250},
    {"two-pass-four-cycle", 0x5679d7baa92a25d9, 0xa89b9a3e62bd793e},
    {"random-order-triangle", 0xdd7bf9f11efc8741, 0x49ed2e78b21c0c29},
    {"arbitrary-order-triangle", 0xe94410f911d75723, 0x938f802aefd85dfb},
};
// clang-format on

// A kind of the sweep: its stream model, a factory over (m', seed), the
// result digest, and whether it checkpoints.
struct SweepKind {
  std::string name;
  StreamModel model;
  std::function<std::unique_ptr<StreamAlgorithm>(std::size_t, std::uint64_t)>
      make;
  Digester digest;
  bool checkpoints = true;
};

std::vector<SweepKind> SweepKinds() {
  // The snapshot kinds' digests, by name; each ignores the options.
  const std::vector<SnapshotEstimator> snap = SnapshotEstimators(0);
  auto digest_of = [&snap](const std::string& name) {
    for (const SnapshotEstimator& est : snap) {
      if (est.name == name) return est.digest;
    }
    ADD_FAILURE() << "no snapshot kind " << name;
    return Digester{};
  };
  const StreamModel adj = StreamModel::kAdjacencyList;
  std::vector<SweepKind> kinds;
  kinds.push_back({"exact-stream", adj,
                   [](std::size_t, std::uint64_t) {
                     return std::make_unique<core::ExactStreamTriangleCounter>();
                   },
                   digest_of("exact-stream")});
  kinds.push_back({"one-pass-triangle", adj,
                   [](std::size_t budget, std::uint64_t seed) {
                     return std::make_unique<core::OnePassTriangleCounter>(
                         core::OnePassTriangleOptions{budget, seed});
                   },
                   digest_of("one-pass-triangle")});
  kinds.push_back({"triangle-distinguisher", adj,
                   [](std::size_t budget, std::uint64_t seed) {
                     return std::make_unique<core::TriangleDistinguisher>(
                         core::TriangleDistinguisherOptions{budget, seed});
                   },
                   digest_of("triangle-distinguisher")});
  kinds.push_back({"two-pass-triangle", adj,
                   [](std::size_t budget, std::uint64_t seed) {
                     core::TwoPassTriangleOptions options;
                     options.sample_size = budget;
                     options.seed = seed;
                     return std::make_unique<core::TwoPassTriangleCounter>(
                         options);
                   },
                   digest_of("two-pass-triangle")});
  kinds.push_back(
      {"wedge-sampling", adj,
       [](std::size_t budget, std::uint64_t seed) {
         return std::make_unique<core::WedgeSamplingTriangleCounter>(
             core::WedgeSamplingOptions{budget, seed});
       },
       digest_of("wedge-sampling")});
  kinds.push_back({"one-pass-four-cycle", adj,
                   [](std::size_t budget, std::uint64_t seed) {
                     return std::make_unique<core::OnePassFourCycleCounter>(
                         core::OnePassFourCycleOptions{budget, seed});
                   },
                   digest_of("one-pass-four-cycle")});
  kinds.push_back({"two-pass-four-cycle", adj,
                   [](std::size_t budget, std::uint64_t seed) {
                     core::FourCycleOptions options;
                     options.sample_size = budget;
                     options.seed = seed;
                     return std::make_unique<core::TwoPassFourCycleCounter>(
                         options);
                   },
                   digest_of("two-pass-four-cycle")});
  kinds.push_back(
      {"random-order-triangle", StreamModel::kRandomOrder,
       [](std::size_t budget, std::uint64_t seed) {
         return std::make_unique<core::RandomOrderTriangleCounter>(
             core::RandomOrderTriangleOptions{budget, seed});
       },
       [](StreamAlgorithm* a) {
         const core::RandomOrderTriangleResult r =
             static_cast<core::RandomOrderTriangleCounter*>(a)->result();
         return Digest(r.estimate, r.edge_count, r.detections, r.prefix_edges,
                       r.scale);
       }});
  kinds.push_back(
      {"arbitrary-order-triangle", StreamModel::kArbitrary,
       [](std::size_t budget, std::uint64_t seed) {
         return std::make_unique<core::ArbitraryOrderTriangleCounter>(
             core::ArbitraryTriangleOptions{budget, seed});
       },
       [](StreamAlgorithm* a) {
         const core::ArbitraryTriangleResult r =
             static_cast<core::ArbitraryOrderTriangleCounter*>(a)->result();
         return Digest(r.estimate, r.edge_count, r.detections,
                       r.edge_sample_size, r.k_squared);
       },
       /*checkpoints=*/false});
  return kinds;
}

// Runs one configuration and folds it into the kind's two digests.
template <typename StreamT>
void SweepRun(const SweepKind& kind, const StreamT& stream, std::size_t budget,
              std::uint64_t seed, Fnv64* results, Fnv64* reports_and_state) {
  std::unique_ptr<StreamAlgorithm> algo = kind.make(budget, seed);
  const RunReport report = RunPasses(stream, algo.get());
  results->Add(kind.digest(algo.get()));
  reports_and_state->Add(ReportRow(ReportOf(report)));
  if (kind.checkpoints) {
    snapshot::SnapshotWriter w;
    algo->Serialize(w);
    reports_and_state->Add(std::move(w).Finish());
  }
}

TEST(Golden, SweepMatchesPinnedDigests) {
  const Graph graphs[] = {
      gen::ErdosRenyiGnp(40, 0.2, 11),       gen::ErdosRenyiGnp(40, 0.2, 21),
      gen::ChungLuPowerLaw(120, 5.0, 2.3, 12),
      gen::ChungLuPowerLaw(120, 5.0, 2.3, 22),
      gen::BarabasiAlbert(60, 3, 13),        gen::BarabasiAlbert(60, 3, 23),
  };
  const std::size_t budgets[] = {1, 2, 3, 8, 32, 128};
  std::ostringstream rows;
  for (const SweepKind& kind : SweepKinds()) {
    Fnv64 results;
    Fnv64 reports_and_state;
    for (const Graph& g : graphs) {
      for (std::uint64_t stream_seed = 1; stream_seed <= 3; ++stream_seed) {
        const AdjacencyListStream adjacency(&g, stream_seed);
        const ArbitraryOrderStream arbitrary(&g, stream_seed);
        const RandomOrderStream random_order(&g, stream_seed);
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          for (const std::size_t budget : budgets) {
            switch (kind.model) {
              case StreamModel::kArbitrary:
                SweepRun(kind, arbitrary, budget, seed, &results,
                         &reports_and_state);
                break;
              case StreamModel::kRandomOrder:
                SweepRun(kind, random_order, budget, seed, &results,
                         &reports_and_state);
                break;
              default:
                SweepRun(kind, adjacency, budget, seed, &results,
                         &reports_and_state);
            }
          }
        }
      }
    }
    const SweepPin actual{kind.name.c_str(), results.value(),
                          reports_and_state.value()};
    rows << "    {\"" << actual.name << "\", 0x" << std::hex << actual.results
         << ", 0x" << actual.reports_and_state << std::dec << "},\n";
    const SweepPin* pinned = nullptr;
    for (const SweepPin& pin : kSweepPinned) {
      if (kind.name == pin.name) pinned = &pin;
    }
    if (pinned == nullptr) {
      ADD_FAILURE() << "no sweep pin for " << kind.name;
      continue;
    }
    EXPECT_EQ(actual.results, pinned->results) << kind.name << " results";
    EXPECT_EQ(actual.reports_and_state, pinned->reports_and_state)
        << kind.name << " run reports and final state";
  }
  if (HasFailure()) ADD_FAILURE() << "actual rows:\n" << rows.str();
}

// --- Contract verdicts ---

// Every verdict stream is replayed for two passes, so replay checks run.
constexpr int kVerdictPasses = 2;

// The algorithm of the checked path: it counts the pairs the driver lets
// through, which is the ok-prefix a strict run delivers.
class PairCount final : public StreamAlgorithm {
 public:
  int passes() const override { return kVerdictPasses; }
  bool AcceptsModel(StreamModel) const override { return true; }
  void OnPair(VertexId, VertexId) override { ++pairs; }
  void OnListBatch(VertexId, std::span<const VertexId> list) override {
    pairs += list.size();
  }
  std::size_t CurrentSpaceBytes() const override { return sizeof(*this); }

  std::size_t pairs = 0;
};

// Feeds a contract directly. The ok-prefix is summed as a strict driver
// would see it: a pair counts when ok() holds before and after it, and a
// list counts OnList's return value.
struct ContractFeed {
  ModelContract* contract;
  std::size_t ok_prefix = 0;

  void BeginList(VertexId u) { contract->BeginList(u); }
  void OnPair(VertexId u, VertexId v) {
    const bool was_ok = contract->ok();
    contract->OnPair(u, v);
    if (was_ok && contract->ok()) ++ok_prefix;
  }
  void OnList(VertexId u, std::span<const VertexId> list) {
    ok_prefix += contract->OnList(u, list);
  }
  void EndList(VertexId u) { contract->EndList(u); }
};

// Regroups a per-pair event stream into OnList calls, one per run of
// consecutive pairs with the same first vertex, so faulty and hand-fed
// streams reach the list path too.
template <typename Sink>
class ListBatcher {
 public:
  explicit ListBatcher(Sink* sink) : sink_(sink) {}

  void BeginList(VertexId u) {
    Flush();
    sink_->BeginList(u);
  }
  void OnPair(VertexId u, VertexId v) {
    if (!run_.empty() && u != run_vertex_) Flush();
    run_vertex_ = u;
    run_.push_back(v);
  }
  void EndList(VertexId u) {
    Flush();
    sink_->EndList(u);
  }
  // Also called at the end of a pass, which may end inside a list.
  void Flush() {
    if (run_.empty()) return;
    sink_->OnList(run_vertex_, run_);
    run_.clear();
  }

 private:
  Sink* sink_;
  VertexId run_vertex_ = 0;
  std::vector<VertexId> run_;
};

// A stream whose passes reach the sink through ListBatcher: the list path
// the driver takes on clean streams, fed with faulty ones.
template <typename StreamT>
class Batched {
 public:
  explicit Batched(const StreamT* stream) : stream_(stream) {}

  const Graph& graph() const { return stream_->graph(); }
  ModelDescriptor descriptor() const { return DescriptorOf(*stream_); }
  auto MakeContract() const
    requires requires(const StreamT& s) { s.MakeContract(); }
  {
    return stream_->MakeContract();
  }
  void ResetPasses() const {
    if constexpr (requires { stream_->ResetPasses(); }) {
      stream_->ResetPasses();
    }
  }

  template <typename Sink>
  void ReplayPass(Sink&& sink) const {
    ListBatcher<std::remove_reference_t<Sink>> batcher(&sink);
    stream_->ReplayPass(batcher);
    batcher.Flush();
  }

 private:
  const StreamT* stream_;
};

// One event of a hand-fed pass.
struct Event {
  char op;  // 'B' BeginList(u), 'P' OnPair(u, v), 'E' EndList(u)
  VertexId u;
  VertexId v;
};

// Parses "B0 P0,1 E0" into BeginList(0), OnPair(0, 1), EndList(0).
std::vector<Event> ParseScript(const std::string& text) {
  std::vector<Event> events;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    Event e{token[0], 0, 0};
    const std::size_t comma = token.find(',');
    e.u = static_cast<VertexId>(std::stoul(token.substr(1, comma - 1)));
    if (comma != std::string::npos) {
      e.v = static_cast<VertexId>(std::stoul(token.substr(comma + 1)));
    }
    events.push_back(e);
  }
  return events;
}

// Replays the same hand-fed pass every time, pair by pair.
class ScriptStream {
 public:
  ScriptStream(const Graph* graph, const std::string& script)
      : graph_(graph), events_(ParseScript(script)) {}

  const Graph& graph() const { return *graph_; }

  template <typename Sink>
  void ReplayPass(Sink&& sink) const {
    for (const Event& e : events_) {
      if (e.op == 'B') sink.BeginList(e.u);
      if (e.op == 'P') sink.OnPair(e.u, e.v);
      if (e.op == 'E') sink.EndList(e.u);
    }
  }

 private:
  const Graph* graph_;
  std::vector<Event> events_;
};

ModelContract::CheckCounters CountersFrom(const obs::MetricsRegistry& m) {
  const obs::Snapshot snap = m.Read();
  auto get = [&snap](const std::string& name) -> std::uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  ModelContract::CheckCounters c;
  c.events_checked = get("validator.events_checked");
  c.passes_checked = get("validator.passes_checked");
  c.lists_checked = get("validator.lists_checked");
  c.pairs_checked = get("validator.pairs_checked");
  c.violations_total = get("validator.violations_total");
  for (std::size_t k = 0; k < kNumViolationKinds; ++k) {
    c.violations_by_kind[k] =
        get(std::string("validator.violations.") +
            ViolationKindName(static_cast<ViolationKind>(k)));
  }
  return c;
}

std::string VerdictLine(const std::string& label, const char* path,
                        const Status& status, std::size_t ok_prefix,
                        const ModelContract::CheckCounters& c) {
  std::ostringstream out;
  out << label << " | " << path << " | " << status.ToString()
      << " | ok-prefix " << ok_prefix << " | events " << c.events_checked
      << " passes " << c.passes_checked << " lists " << c.lists_checked
      << " pairs " << c.pairs_checked << " violations " << c.violations_total
      << " by kind";
  for (std::uint64_t count : c.violations_by_kind) out << ' ' << count;
  return out.str();
}

// A hand-fed pass checked as an arbitrary-order edge stream: each edge
// exactly once per pass, in any orientation and any order.
class EdgeScriptStream final : public ScriptStream {
 public:
  using ScriptStream::ScriptStream;

  ModelDescriptor descriptor() const {
    return {.model = StreamModel::kArbitrary};
  }
  EdgeStreamContract MakeContract() const {
    return EdgeStreamContract(&graph(), descriptor());
  }
};

// Appends one verdict line per delivery path for `stream`: per-pair OnPair
// and OnList on the stream's contract (MakeContractForStream) fed
// directly, then RunPassesChecked over the list path with a counting
// algorithm.
template <typename StreamT>
void AddVerdicts(const std::string& label, const StreamT& stream,
                 std::vector<std::string>* lines) {
  auto reset = [&stream] {
    if constexpr (requires { stream.ResetPasses(); }) stream.ResetPasses();
  };
  for (const bool by_list : {false, true}) {
    reset();
    auto contract = MakeContractForStream(stream);
    ContractFeed feed{&contract};
    ListBatcher<ContractFeed> batcher(&feed);
    for (int pass = 0; pass < kVerdictPasses; ++pass) {
      contract.BeginPass(pass);
      if (by_list) {
        stream.ReplayPass(batcher);
        batcher.Flush();
      } else {
        stream.ReplayPass(feed);  // these streams deliver pair by pair
      }
      contract.EndPass(pass);
    }
    lines->push_back(VerdictLine(label, by_list ? "list" : "pair",
                                 contract.ToStatus(), feed.ok_prefix,
                                 contract.counters()));
  }
  PairCount algo;
  obs::MetricsRegistry metrics;
  const Batched<StreamT> batched(&stream);
  StatusOr<RunReport> run =
      RunPassesChecked(batched, &algo, {.trace = {.metrics = &metrics}});
  lines->push_back(VerdictLine(label, "checked", run.status(), algo.pairs,
                               CountersFrom(metrics)));
}

std::vector<std::string> AdjacencyContractVerdicts() {
  std::vector<std::string> lines;
  struct Input {
    const char* name;
    Graph graph;
  };
  const Input inputs[] = {
      {"er", gen::ErdosRenyiGnp(60, 0.12, 3)},
      {"chung-lu", gen::ChungLuPowerLaw(120, 5.0, 2.3, 7)},
  };
  const FaultKind kinds[] = {
      FaultKind::kNone,           FaultKind::kSplitList,
      FaultKind::kDropPair,       FaultKind::kDuplicatePair,
      FaultKind::kDropReverseEdge, FaultKind::kTruncatePass,
      FaultKind::kReplayDivergence,
  };
  for (const Input& input : inputs) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const AdjacencyListStream base(&input.graph, seed);
      for (const FaultKind kind : kinds) {
        // Pass 0 defines the replay order, so divergence needs pass 1; a
        // clean stream has no fault pass.
        const int first = kind == FaultKind::kReplayDivergence ? 1 : 0;
        const int last = kind == FaultKind::kNone ? 0 : 1;
        for (int pass = first; pass <= last; ++pass) {
          FaultSpec spec;
          spec.kind = kind;
          spec.pass = pass;
          spec.seed = seed + 100;
          const FaultInjectingStream faulty(&base, spec);
          AddVerdicts(std::string(input.name) + " seed " +
                          std::to_string(seed) + " " + FaultKindName(kind) +
                          "@" + std::to_string(pass),
                      faulty, &lines);
        }
      }
    }
  }
  // Sequences no injector makes, on two triangles sharing edge {0, 1}:
  // lists 0: 1 2 3, 1: 0 2 3, 2: 0 1, 3: 0 1.
  const Graph g = testing_util::TwoTrianglesSharedEdge();
  const std::string l0 = "B0 P0,1 P0,2 P0,3 E0 ";
  const std::string l1 = "B1 P1,0 P1,2 P1,3 E1 ";
  const std::string l2 = "B2 P2,0 P2,1 E2 ";
  const std::string l3 = "B3 P3,0 P3,1 E3 ";
  const std::pair<const char*, std::string> scripts[] = {
      {"clean", l0 + l1 + l2 + l3},
      {"foreign pair", l0 + l1 + "B2 P2,0 P2,3 P2,1 E2 " + l3},
      {"self-loop pair", l0 + l1 + "B2 P2,0 P2,2 P2,1 E2 " + l3},
      {"out-of-range neighbor",
       l0 + l1 + "B2 P2,0 P2,4 P2,1 P2,4000000000 E2 " + l3},
      {"unknown-vertex list", l0 + "B9 P9,0 E9 " + l1 + l2 + l3},
      {"pair outside the open list",
       l0 + "B1 P1,0 P0,3 P1,2 P1,3 E1 P1,2 " + l2 + l3},
      {"duplicate then a short list",
       "B0 P0,1 P0,1 P0,2 E0 " + l1 + "B2 P2,0 E2 " + l3},
      {"reopened list", "B0 P0,1 E0 " + l1 + "B0 P0,2 P0,3 E0 " + l2 + l3},
      {"EndList without BeginList", l0 + l1 + "E2 " + l2 + l3},
      {"list begins inside another",
       "B0 P0,1 " + l1 + "P0,2 P0,3 E0 " + l2 + l3},
      {"short list then its unseen neighbor",
       "B0 P0,1 P0,2 E0 B2 P2,0 P2,3 P2,1 E2 " + l1 + l3},
  };
  for (const auto& [name, script] : scripts) {
    AddVerdicts(std::string("script ") + name, ScriptStream(&g, script),
                &lines);
  }
  return lines;
}

template <typename BaseT>
void AddEdgeStreamVerdicts(const std::string& name, const BaseT& base,
                           std::uint64_t seed,
                           std::vector<std::string>* lines) {
  const FaultKind kinds[] = {
      FaultKind::kNone,         FaultKind::kDropPair,
      FaultKind::kDuplicatePair, FaultKind::kTruncatePass,
      FaultKind::kReplayDivergence,
  };
  for (const FaultKind kind : kinds) {
    const int first = kind == FaultKind::kReplayDivergence ? 1 : 0;
    const int last = kind == FaultKind::kNone ? 0 : 1;
    for (int pass = first; pass <= last; ++pass) {
      FaultSpec spec;
      spec.kind = kind;
      spec.pass = pass;
      spec.seed = seed + 100;
      StatusOr<EdgeFaultInjectingStream<BaseT>> faulty =
          EdgeFaultInjectingStream<BaseT>::Make(&base, spec);
      ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
      AddVerdicts(name + " seed " + std::to_string(seed) + " " +
                      FaultKindName(kind) + "@" + std::to_string(pass),
                  *faulty, lines);
    }
  }
}

std::vector<std::string> EdgeContractVerdicts() {
  std::vector<std::string> lines;
  struct Input {
    const char* name;
    Graph graph;
  };
  const Input inputs[] = {
      {"er", gen::ErdosRenyiGnp(60, 0.12, 3)},
      {"chung-lu", gen::ChungLuPowerLaw(120, 5.0, 2.3, 7)},
  };
  for (const Input& input : inputs) {
    const std::string name = input.name;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      AddEdgeStreamVerdicts(name + " arbitrary",
                            ArbitraryOrderStream(&input.graph, seed), seed,
                            &lines);
      AddEdgeStreamVerdicts(name + " random-order",
                            RandomOrderStream(&input.graph, seed), seed,
                            &lines);
      AddEdgeStreamVerdicts(name + " random-order eps 0.1",
                            RandomOrderStream(&input.graph, seed, 0.1), seed,
                            &lines);
    }
  }
  // Sequences no injector makes, on two triangles sharing edge {0, 1}:
  // edges {0,1} {0,2} {0,3} {1,2} {1,3}; {2,3} is not an edge.
  const Graph g = testing_util::TwoTrianglesSharedEdge();
  const std::string r0 = "B0 P0,1 P0,2 P0,3 E0 ";
  const std::string r1 = "B1 P1,2 P1,3 E1 ";
  const std::pair<const char*, std::string> scripts[] = {
      {"clean", r0 + r1},
      {"foreign element", r0 + "B2 P2,3 E2 " + r1},
      {"self-loop", r0 + "B2 P2,2 E2 " + r1},
      {"out-of-range id", "B0 P0,1 P0,4 P0,2 P0,4000000000 P0,3 E0 " + r1},
      {"reversed orientation", "B0 P0,1 P0,2 E0 B3 P3,0 E3 " + r1},
      {"reversed duplicate", r0 + "B1 P1,0 P1,2 P1,3 E1"},
      {"run of an unknown vertex", "B9 P9,0 E9 " + r0 + r1},
      {"short pass", "B0 P0,1 P0,2 E0 " + r1},
  };
  for (const auto& [name, script] : scripts) {
    AddVerdicts(std::string("script ") + name, EdgeScriptStream(&g, script),
                &lines);
  }
  return lines;
}

// Compares `actual` with the lines of tests/golden/<file>.
void ExpectVerdictsPinned(const std::vector<std::string>& actual,
                          const std::string& file) {
  std::vector<std::string> pinned;
  std::ifstream in(std::string(CYCLESTREAM_GOLDEN_DIR) + "/" + file);
  for (std::string line; std::getline(in, line);) pinned.push_back(line);
  std::ostringstream all;
  for (const std::string& line : actual) all << line << '\n';
  ASSERT_FALSE(pinned.empty())
      << "missing tests/golden/" << file << "; actual:\n" << all.str();
  EXPECT_EQ(actual.size(), pinned.size());
  for (std::size_t i = 0; i < std::min(actual.size(), pinned.size()); ++i) {
    EXPECT_EQ(actual[i], pinned[i]) << "verdict line " << i + 1;
  }
}

TEST(Golden, AdjacencyContractVerdicts) {
  ExpectVerdictsPinned(AdjacencyContractVerdicts(),
                       "adjacency-contract-verdicts.txt");
}

TEST(Golden, EdgeContractVerdicts) {
  ExpectVerdictsPinned(EdgeContractVerdicts(), "edge-contract-verdicts.txt");
}

}  // namespace
}  // namespace stream
}  // namespace cyclestream
