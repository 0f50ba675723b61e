// The model boundary, executable: FaultInjectingStream manufactures each
// class of adjacency-list contract violation, AdjacencyListContract must flag
// exactly the faulty streams (with a position), and RunPassesChecked must
// reject them with a recoverable Status instead of a wrong estimate or a
// CHECK abort. Clean streams — every generator in src/gen, wrapped or not —
// must sail through.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_pass_triangle.h"
#include "exact/triangle.h"
#include "gen/barabasi_albert.h"
#include "gen/chung_lu.h"
#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "gen/projective_plane.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "stream/fault_injection.h"
#include "stream/validator.h"

namespace cyclestream {
namespace stream {
namespace {

// The violation class each injected fault must surface as.
ViolationKind ExpectedViolation(FaultKind fault) {
  switch (fault) {
    case FaultKind::kSplitList: return ViolationKind::kSplitList;
    case FaultKind::kDropPair: return ViolationKind::kMissingPair;
    case FaultKind::kDuplicatePair: return ViolationKind::kDuplicatePair;
    case FaultKind::kDropReverseEdge: return ViolationKind::kMissingPair;
    case FaultKind::kTruncatePass: return ViolationKind::kTruncatedPass;
    case FaultKind::kReplayDivergence:
      return ViolationKind::kReplayDivergence;
    default: ADD_FAILURE() << "no violation expected";
  }
  return ViolationKind::kSplitList;
}

// Number of passes needed to surface the fault (divergence needs a replay).
int PassesFor(FaultKind fault) {
  return fault == FaultKind::kReplayDivergence ? 2 : 1;
}

FaultSpec SpecFor(FaultKind fault, std::uint64_t seed) {
  FaultSpec spec;
  spec.kind = fault;
  spec.pass = fault == FaultKind::kReplayDivergence ? 1 : 0;
  spec.seed = seed;
  return spec;
}

class FaultClassTest : public ::testing::TestWithParam<FaultKind> {};

TEST_P(FaultClassTest, ValidatorFlagsFaultyAndPassesCleanStream) {
  const FaultKind fault = GetParam();
  Graph g = gen::ErdosRenyiGnp(60, 0.12, 3);
  ASSERT_GT(g.num_edges(), 0u);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    AdjacencyListStream base(&g, seed);
    // The un-faulted stream passes validation...
    Status clean = ValidateStream(base, PassesFor(fault));
    EXPECT_TRUE(clean.ok()) << clean.ToString();

    // ...and the same stream with the fault injected is flagged with the
    // expected violation class.
    FaultInjectingStream faulty(&base, SpecFor(fault, seed + 100));
    AdjacencyListContract validator(&g);
    struct Forward {
      AdjacencyListContract* v;
      void BeginList(VertexId u) { v->BeginList(u); }
      void OnPair(VertexId u, VertexId w) { v->OnPair(u, w); }
      void EndList(VertexId u) { v->EndList(u); }
    } sink{&validator};
    for (int pass = 0; pass < PassesFor(fault); ++pass) {
      validator.BeginPass(pass);
      faulty.ReplayPass(sink);
      validator.EndPass(pass);
    }
    ASSERT_FALSE(validator.ok()) << FaultKindName(fault) << " seed " << seed;
    const Violation& v = *validator.violation();
    EXPECT_EQ(v.kind, ExpectedViolation(fault))
        << FaultKindName(fault) << " seed " << seed << ": " << v.ToString();
    EXPECT_FALSE(validator.ToStatus().ok());
  }
}

TEST_P(FaultClassTest, ViolationPositionPointsAtTheFault) {
  const FaultKind fault = GetParam();
  Graph g = gen::ChungLuPowerLaw(120, 5.0, 2.3, 7);
  AdjacencyListStream base(&g, 11);
  FaultInjectingStream faulty(&base, SpecFor(fault, 42));

  AdjacencyListContract validator(&g);
  struct Forward {
    AdjacencyListContract* v;
    void BeginList(VertexId u) { v->BeginList(u); }
    void OnPair(VertexId u, VertexId w) { v->OnPair(u, w); }
    void EndList(VertexId u) { v->EndList(u); }
  } sink{&validator};
  for (int pass = 0; pass < PassesFor(fault); ++pass) {
    validator.BeginPass(pass);
    faulty.ReplayPass(sink);
    validator.EndPass(pass);
  }
  ASSERT_FALSE(validator.ok()) << FaultKindName(fault);
  const Violation& v = *validator.violation();

  EXPECT_EQ(v.pass, faulty.spec().pass) << v.ToString();
  switch (fault) {
    case FaultKind::kSplitList:
    case FaultKind::kDuplicatePair:
    case FaultKind::kTruncatePass:
      // Flagged at exactly the first corrupted element.
      EXPECT_EQ(v.position, faulty.fault_position()) << v.ToString();
      break;
    default:
      // Drops and reorderings surface at the enclosing list/pass boundary,
      // at or after the corrupted element but within the pass.
      EXPECT_GE(v.position, faulty.fault_position()) << v.ToString();
      EXPECT_LE(v.position, faulty.stream_length()) << v.ToString();
      break;
  }
}

TEST_P(FaultClassTest, RunPassesCheckedReturnsErrorInsteadOfAborting) {
  const FaultKind fault = GetParam();
  Graph g = gen::ErdosRenyiGnp(80, 0.1, 5);
  AdjacencyListStream base(&g, 2);
  // Two-pass algorithm so every fault class (incl. replay divergence on
  // pass 1) is exercised through the strict driver.
  core::TwoPassTriangleOptions options;
  options.sample_size = 8 * g.num_edges() + 8;
  options.seed = 9;

  FaultInjectingStream faulty(&base, SpecFor(fault, 77));
  core::TwoPassTriangleCounter counter(options);
  auto result = RunPassesChecked(faulty, &counter);
  ASSERT_FALSE(result.ok()) << FaultKindName(fault);
  EXPECT_FALSE(result.status().message().empty());

  // The identical un-faulted run succeeds and still yields the exact count.
  core::TwoPassTriangleCounter clean_counter(options);
  auto clean = RunPassesChecked(base, &clean_counter);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_DOUBLE_EQ(clean_counter.Estimate(),
                   static_cast<double>(exact::CountTriangles(g)));
  EXPECT_EQ(clean->pairs_processed, 2 * faulty.stream_length());
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FaultClassTest,
    ::testing::Values(FaultKind::kSplitList, FaultKind::kDropPair,
                      FaultKind::kDuplicatePair, FaultKind::kDropReverseEdge,
                      FaultKind::kTruncatePass,
                      FaultKind::kReplayDivergence),
    [](const ::testing::TestParamInfo<FaultKind>& info) {
      std::string name = FaultKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(AdjacencyListContract, CleanStreamsPassOnEveryGenerator) {
  gen::PlantedBackground bg{.stars = 2, .star_degree = 6};
  std::vector<Graph> graphs;
  graphs.push_back(gen::ErdosRenyiGnp(70, 0.1, 1));
  graphs.push_back(gen::ChungLuPowerLaw(150, 6.0, 2.2, 2));
  graphs.push_back(gen::BarabasiAlbert(120, 3, 3));
  graphs.push_back(gen::Complete(12));
  graphs.push_back(gen::CompleteBipartite(5, 8));
  graphs.push_back(gen::CycleGraph(17));
  graphs.push_back(gen::PathGraph(9));
  graphs.push_back(gen::Petersen());
  graphs.push_back(gen::PlantedDisjointTriangles(8, bg));
  graphs.push_back(gen::PlantedHeavyEdgeTriangles(10, bg));
  graphs.push_back(gen::PlantedClique(8, bg));
  graphs.push_back(gen::PlantedBookForest(4, 5, bg));
  graphs.push_back(gen::PlantedSharedVertexTriangles(6, bg));
  graphs.push_back(gen::PlantedDisjointFourCycles(7, bg));
  graphs.push_back(gen::PlantedHeavyDiagonalFourCycles(6, bg));
  graphs.push_back(gen::PlantedDisjointCycles(5, 4, bg));
  graphs.push_back(gen::ProjectivePlaneGraph(7));
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      AdjacencyListStream s(&graphs[i], seed);
      Status status = ValidateStream(s, 3);
      EXPECT_TRUE(status.ok())
          << "graph " << i << " seed " << seed << ": " << status.ToString();
    }
  }
}

TEST(FaultInjectingStream, NoFaultIsATransparentWrapper) {
  Graph g = gen::ErdosRenyiGnp(50, 0.15, 4);
  AdjacencyListStream base(&g, 8);
  FaultInjectingStream wrapped(&base, FaultSpec{});
  Status status = ValidateStream(wrapped, 2);
  EXPECT_TRUE(status.ok()) << status.ToString();

  core::TwoPassTriangleOptions options;
  options.sample_size = g.num_edges() / 2 + 1;
  options.seed = 3;
  core::TwoPassTriangleCounter direct(options);
  core::TwoPassTriangleCounter via_wrapper(options);
  RunReport direct_report = RunPasses(base, &direct);
  RunReport wrapped_report = RunPasses(wrapped, &via_wrapper);
  EXPECT_EQ(direct.Estimate(), via_wrapper.Estimate());
  EXPECT_EQ(direct_report.pairs_processed, wrapped_report.pairs_processed);
}

TEST(FaultInjectingStream, ResetPassesReplaysTheFaultDeterministically) {
  Graph g = gen::ErdosRenyiGnp(40, 0.2, 6);
  AdjacencyListStream base(&g, 1);
  FaultSpec spec = SpecFor(FaultKind::kDropPair, 5);
  FaultInjectingStream faulty(&base, spec);
  Status first = ValidateStream(faulty, 1);
  faulty.ResetPasses();
  Status second = ValidateStream(faulty, 1);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first, second);  // same fault, same position, same message
}

TEST(RunPassesChecked, StatusCodesDistinguishViolationFamilies) {
  Graph g = gen::ErdosRenyiGnp(60, 0.12, 9);
  AdjacencyListStream base(&g, 4);
  core::TwoPassTriangleOptions options;
  options.sample_size = g.num_edges() + 1;
  options.seed = 1;

  struct Case {
    FaultKind kind;
    StatusCode code;
  };
  const Case cases[] = {
      {FaultKind::kSplitList, StatusCode::kFailedPrecondition},
      {FaultKind::kDropPair, StatusCode::kDataLoss},
      {FaultKind::kDuplicatePair, StatusCode::kInvalidArgument},
      {FaultKind::kTruncatePass, StatusCode::kDataLoss},
      {FaultKind::kReplayDivergence, StatusCode::kFailedPrecondition},
  };
  for (const Case& c : cases) {
    FaultInjectingStream faulty(&base, SpecFor(c.kind, 31));
    core::TwoPassTriangleCounter counter(options);
    auto result = RunPassesChecked(faulty, &counter);
    ASSERT_FALSE(result.ok()) << FaultKindName(c.kind);
    EXPECT_EQ(result.status().code(), c.code)
        << FaultKindName(c.kind) << ": " << result.status().ToString();
  }
}

TEST(RunPassesChecked, MatchesUncheckedDriverOnCleanStreams) {
  Graph g = gen::ChungLuPowerLaw(200, 6.0, 2.2, 12);
  AdjacencyListStream s(&g, 21);
  core::TwoPassTriangleOptions options;
  options.sample_size = g.num_edges() / 3 + 1;
  options.seed = 14;

  core::TwoPassTriangleCounter unchecked(options);
  RunReport plain = RunPasses(s, &unchecked);
  core::TwoPassTriangleCounter checked(options);
  auto strict = RunPassesChecked(s, &checked);
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_EQ(unchecked.Estimate(), checked.Estimate());
  EXPECT_EQ(plain.pairs_processed, strict->pairs_processed);
  EXPECT_EQ(plain.passes_requested, strict->passes_requested);
}

TEST(FaultInjectingStream, TruncationOnListBoundaryIsStillFlagged) {
  // truncate_at landing exactly on an adjacency-list boundary: every
  // delivered list closes cleanly and the rest never arrive. The validator
  // must still report a truncated pass — no open list is not the same as a
  // complete pass.
  Graph g = gen::Complete(6);  // every list has degree 5
  AdjacencyListStream base(&g, 7);
  FaultSpec spec;
  spec.kind = FaultKind::kTruncatePass;
  spec.pass = 0;
  spec.truncate_at = 15;  // exactly three whole lists
  FaultInjectingStream faulty(&base, spec);

  // The cut really is clean: the sink sees balanced Begin/End for the
  // three delivered lists and nothing after.
  struct Recorder {
    std::size_t begins = 0, ends = 0, pairs = 0;
    void BeginList(VertexId) { ++begins; }
    void OnPair(VertexId, VertexId) { ++pairs; }
    void EndList(VertexId) { ++ends; }
  } recorder;
  faulty.ReplayPass(recorder);
  EXPECT_EQ(recorder.begins, 3u);
  EXPECT_EQ(recorder.ends, 3u);
  EXPECT_EQ(recorder.pairs, 15u);

  faulty.ResetPasses();
  Status status = ValidateStream(faulty, 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated-pass"), std::string::npos)
      << status.ToString();
}

TEST(AdjacencyListContract, MissingTrailingZeroDegreeListsAreFlagged) {
  // A pass that delivers all 2m pairs but skips trailing zero-degree lists
  // passes the pair-count check; the list count must catch it.
  Graph g = Graph::FromEdges(4, {{0, 1}});  // vertices 2, 3 isolated
  AdjacencyListContract validator(&g);
  validator.BeginPass(0);
  validator.BeginList(0);
  validator.OnPair(0, 1);
  validator.EndList(0);
  validator.BeginList(1);
  validator.OnPair(1, 0);
  validator.EndList(1);
  // Lists 2 and 3 (degree zero) never arrive.
  validator.EndPass(0);
  ASSERT_FALSE(validator.ok());
  EXPECT_EQ(validator.violation()->kind, ViolationKind::kTruncatedPass);
  EXPECT_NE(validator.violation()->detail.find("adjacency lists"),
            std::string::npos);
}

TEST(FaultInjectingStream, ExplicitTruncateAtIsExact) {
  Graph g = gen::ErdosRenyiGnp(12, 0.4, 3);
  AdjacencyListStream base(&g, 5);
  for (std::size_t cut : {0u, 1u, 7u}) {
    FaultSpec spec;
    spec.kind = FaultKind::kTruncatePass;
    spec.truncate_at = cut;
    FaultInjectingStream faulty(&base, spec);
    EXPECT_EQ(faulty.fault_position(), cut);
    struct Counter {
      std::size_t pairs = 0;
      void BeginList(VertexId) {}
      void OnPair(VertexId, VertexId) { ++pairs; }
      void EndList(VertexId) {}
    } counter;
    faulty.ReplayPass(counter);
    EXPECT_EQ(counter.pairs, cut);
  }
}

}  // namespace
}  // namespace stream
}  // namespace cyclestream
