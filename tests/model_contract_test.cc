// The per-model contract boundary, executable (satellite of the StreamModel
// refactor): list-contiguity violations exist ONLY in the adjacency-list
// model — the edge-order contracts never report them — while exactly-once
// violations are flagged, with their stream positions, under every model.
// Fault injection itself is model-gated: a spec that does not apply to a
// stream's declared model is rejected with a typed Status, and the driver's
// model gate rejects algorithm/stream mismatches the same way.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/arbitrary_triangle.h"
#include "core/one_pass_triangle.h"
#include "core/random_order_triangle.h"
#include "core/two_pass_triangle.h"
#include "gen/erdos_renyi.h"
#include "gen/classic.h"
#include "stream/adjacency_stream.h"
#include "stream/arbitrary_stream.h"
#include "stream/driver.h"
#include "stream/fault_injection.h"
#include "stream/random_order_stream.h"
#include "stream/validator.h"

namespace cyclestream {
namespace stream {
namespace {

// Replays `stream` through its own per-model contract and returns the first
// violation (nullopt when the stream is clean).
template <typename StreamT>
std::optional<Violation> FirstViolation(const StreamT& stream,
                                        int passes = 1) {
  if constexpr (requires { stream.ResetPasses(); }) stream.ResetPasses();
  auto contract = MakeContractForStream(stream);
  struct Forward {
    decltype(contract)* c;
    void BeginList(VertexId u) { c->BeginList(u); }
    void OnPair(VertexId u, VertexId v) { c->OnPair(u, v); }
    void EndList(VertexId u) { c->EndList(u); }
  } sink{&contract};
  for (int pass = 0; pass < passes; ++pass) {
    contract.BeginPass(pass);
    stream.ReplayPass(sink);
    contract.EndPass(pass);
  }
  return contract.violation();
}

// --- RandomOrderStream: the seeded permutation and its ε-perturbation. ---

TEST(RandomOrderStream, SeededPermutationIsDeterministic) {
  Graph g = gen::ErdosRenyiGnp(50, 0.2, 1);
  RandomOrderStream s1(&g, 9), s2(&g, 9), s3(&g, 10);
  EXPECT_EQ(s1.order(), s2.order());
  EXPECT_NE(s1.order(), s3.order());
  EXPECT_EQ(s1.stream_length(), g.num_edges());
  EXPECT_EQ(s1.descriptor().model, StreamModel::kRandomOrder);
  EXPECT_EQ(s1.descriptor().order_seed, 9u);
  EXPECT_EQ(s1.descriptor().epsilon, 0.0);
  EXPECT_EQ(s1.perturbed_prefix(), 0u);
  Status clean = ValidateStream(s1, 2);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

TEST(RandomOrderStream, EpsilonPerturbationRelocatesTailToFront) {
  Graph g = gen::ErdosRenyiGnp(40, 0.25, 3);
  const double epsilon = 0.2;
  RandomOrderStream uniform(&g, 5);
  RandomOrderStream perturbed(&g, 5, epsilon);
  const std::size_t m = g.num_edges();
  const std::size_t k =
      static_cast<std::size_t>(epsilon * static_cast<double>(m));
  ASSERT_GT(k, 0u);
  EXPECT_EQ(perturbed.perturbed_prefix(), k);
  EXPECT_EQ(perturbed.descriptor().model, StreamModel::kAdversarialPerturbed);
  EXPECT_EQ(perturbed.descriptor().epsilon, epsilon);

  // Exactly "relocate ⌊εm⌋ elements": the uniform permutation's last k
  // elements move to the front; relative order is preserved on both sides.
  std::vector<Edge> expected;
  expected.insert(expected.end(), uniform.order().end() - k,
                  uniform.order().end());
  expected.insert(expected.end(), uniform.order().begin(),
                  uniform.order().end() - k);
  ASSERT_EQ(perturbed.order().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(MakeEdgeKey(perturbed.order()[i].u, perturbed.order()[i].v),
              MakeEdgeKey(expected[i].u, expected[i].v))
        << "position " << i;
  }
  // The perturbation is baked into the declared order, so the contract
  // still passes the stream position-by-position.
  Status clean = ValidateStream(perturbed, 2);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

// --- Contiguity is an adjacency-list-only promise. ---

TEST(ModelContracts, ContiguityViolationsNotReportedOnArbitraryStreams) {
  // Deliver an arbitrary stream's edges while reopening the same u-run many
  // times with other runs interposed — the exact event shape the adjacency
  // validator calls a split list. The edge contract must stay clean: runs
  // are packaging, not promises.
  Graph g = gen::Complete(6);
  ArbitraryOrderStream s(&g, 2);
  EdgeStreamContract contract = s.MakeContract();
  contract.BeginPass(0);
  for (const Edge& e : s.order()) {
    // One singleton run per element: every vertex's "list" is split into
    // as many reopened segments as it has edges.
    contract.BeginList(e.u);
    contract.OnPair(e.u, e.v);
    contract.EndList(e.u);
  }
  contract.EndPass(0);
  EXPECT_TRUE(contract.ok())
      << "edge contract reported: " << contract.violation()->ToString();
  EXPECT_EQ(contract.counters().violations_total, 0u);
}

TEST(ModelContracts, ContiguityViolationsNotReportedOnRandomOrderStreams) {
  // The same singleton-run delivery over declared-order streams (uniform
  // and ε-perturbed): EdgeFaultInjectingStream with kNone emits exactly
  // that shape. In a random permutation nearly every vertex's elements are
  // non-contiguous; the contract must not care.
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 7);
  RandomOrderStream uniform(&g, 4);
  RandomOrderStream perturbed(&g, 4, 0.15);
  auto wrapped_uniform =
      EdgeFaultInjectingStream<RandomOrderStream>::Make(&uniform, FaultSpec{});
  auto wrapped_perturbed = EdgeFaultInjectingStream<RandomOrderStream>::Make(
      &perturbed, FaultSpec{});
  ASSERT_TRUE(wrapped_uniform.ok());
  ASSERT_TRUE(wrapped_perturbed.ok());
  Status u_status = ValidateStream(*wrapped_uniform, 2);
  Status p_status = ValidateStream(*wrapped_perturbed, 2);
  EXPECT_TRUE(u_status.ok()) << u_status.ToString();
  EXPECT_TRUE(p_status.ok()) << p_status.ToString();

  // Contrast: the identical split-into-singletons shape on an
  // adjacency-list stream IS a violation (contiguity is that model's
  // promise).
  AdjacencyListStream adj(&g, 4);
  AdjacencyListContract list_contract(&g);
  list_contract.BeginPass(0);
  VertexId u0 = adj.list_order()[0];
  auto list = adj.ListOf(u0);
  ASSERT_GE(list.size(), 2u);
  list_contract.BeginList(u0);
  list_contract.OnPair(u0, list[0]);
  list_contract.EndList(u0);
  list_contract.BeginList(u0);  // reopens a closed list: split
  list_contract.OnPair(u0, list[1]);
  list_contract.EndList(u0);
  ASSERT_FALSE(list_contract.ok());
  EXPECT_EQ(list_contract.violation()->kind, ViolationKind::kSplitList);
}

// --- Exactly-once violations are flagged with positions on every model. ---

TEST(ModelContracts, DuplicateEdgeFlaggedWithPositionOnEveryEdgeModel) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 11);
  FaultSpec spec;
  spec.kind = FaultKind::kDuplicatePair;
  spec.seed = 77;

  ArbitraryOrderStream arbitrary(&g, 6);
  RandomOrderStream random_order(&g, 6);
  RandomOrderStream perturbed(&g, 6, 0.1);

  auto check = [&spec](const auto& base, const char* label) {
    auto faulty = EdgeFaultInjectingStream<
        std::decay_t<decltype(base)>>::Make(&base, spec);
    ASSERT_TRUE(faulty.ok()) << label;
    std::optional<Violation> v = FirstViolation(*faulty);
    ASSERT_TRUE(v.has_value()) << label;
    EXPECT_EQ(v->kind, ViolationKind::kDuplicatePair) << label;
    EXPECT_EQ(v->position, faulty->fault_position()) << label;
    EXPECT_NE(v->detail.find("delivered twice"), std::string::npos) << label;
  };
  check(arbitrary, "arbitrary");
  check(random_order, "random-order");
  check(perturbed, "adversarial-perturbed");
}

TEST(ModelContracts, DuplicatePairFlaggedWithPositionOnAdjacencyModel) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 11);
  AdjacencyListStream base(&g, 6);
  FaultSpec spec;
  spec.kind = FaultKind::kDuplicatePair;
  spec.seed = 77;
  FaultInjectingStream faulty(&base, spec);
  std::optional<Violation> v = FirstViolation(faulty);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, ViolationKind::kDuplicatePair);
  EXPECT_EQ(v->position, faulty.fault_position());
}

TEST(ModelContracts, DroppedEdgeSurfacesPerModel) {
  Graph g = gen::ErdosRenyiGnp(30, 0.3, 13);
  const std::size_t m = g.num_edges();
  FaultSpec spec;
  spec.kind = FaultKind::kDropPair;
  spec.seed = 31;

  // Arbitrary order makes no order promise, so a dropped edge can only
  // surface at end of pass: a missing-pair naming the absent edge.
  ArbitraryOrderStream arbitrary(&g, 8);
  auto arb_faulty =
      EdgeFaultInjectingStream<ArbitraryOrderStream>::Make(&arbitrary, spec);
  ASSERT_TRUE(arb_faulty.ok());
  std::optional<Violation> arb_v = FirstViolation(*arb_faulty);
  ASSERT_TRUE(arb_v.has_value());
  EXPECT_EQ(arb_v->kind, ViolationKind::kMissingPair);
  EXPECT_EQ(arb_v->position, m - 1);  // elements delivered by end of pass
  EXPECT_NE(arb_v->detail.find("missing edge"), std::string::npos);

  // A declared order pins every position, so the same drop is caught the
  // moment the next element lands where the dropped one was promised.
  RandomOrderStream random_order(&g, 8);
  auto rnd_faulty =
      EdgeFaultInjectingStream<RandomOrderStream>::Make(&random_order, spec);
  ASSERT_TRUE(rnd_faulty.ok());
  std::optional<Violation> rnd_v = FirstViolation(*rnd_faulty);
  ASSERT_TRUE(rnd_v.has_value());
  EXPECT_EQ(rnd_v->kind, ViolationKind::kPermutationDivergence);
  EXPECT_EQ(rnd_v->position, rnd_faulty->fault_position());
}

TEST(ModelContracts, TruncatedPassIsDataLossOnEdgeModels) {
  Graph g = gen::ErdosRenyiGnp(24, 0.3, 17);
  FaultSpec spec;
  spec.kind = FaultKind::kTruncatePass;
  spec.truncate_at = g.num_edges() / 2;

  ArbitraryOrderStream arbitrary(&g, 3);
  auto faulty =
      EdgeFaultInjectingStream<ArbitraryOrderStream>::Make(&arbitrary, spec);
  ASSERT_TRUE(faulty.ok());
  Status status = ValidateStream(*faulty, 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(ModelContracts, PassZeroDivergenceDetectableOnlyWithDeclaredOrder) {
  Graph g = gen::ErdosRenyiGnp(24, 0.3, 19);
  FaultSpec spec;
  spec.kind = FaultKind::kReplayDivergence;
  spec.pass = 0;
  spec.seed = 5;

  // Declared-order models pin pass 0 by seed: a pass-0 swap is flagged as
  // permutation divergence at the swap position.
  RandomOrderStream random_order(&g, 12);
  auto rnd =
      EdgeFaultInjectingStream<RandomOrderStream>::Make(&random_order, spec);
  ASSERT_TRUE(rnd.ok());
  std::optional<Violation> v = FirstViolation(*rnd);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, ViolationKind::kPermutationDivergence);
  EXPECT_EQ(v->position, rnd->fault_position());

  // Arbitrary order defines its order by delivery: the same spec is
  // rejected as inapplicable rather than silently injecting nothing.
  ArbitraryOrderStream arbitrary(&g, 12);
  auto arb =
      EdgeFaultInjectingStream<ArbitraryOrderStream>::Make(&arbitrary, spec);
  ASSERT_FALSE(arb.ok());
  EXPECT_EQ(arb.status().code(), StatusCode::kInvalidArgument);

  // On a later pass the arbitrary model's replay promise kicks in.
  spec.pass = 1;
  auto arb_pass1 =
      EdgeFaultInjectingStream<ArbitraryOrderStream>::Make(&arbitrary, spec);
  ASSERT_TRUE(arb_pass1.ok());
  std::optional<Violation> v1 = FirstViolation(*arb_pass1, 2);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->kind, ViolationKind::kReplayDivergence);
}

// --- Fault applicability is part of the model contract. ---

TEST(FaultSpecModelGate, InapplicableInjectionsRejectedWithTypedStatus) {
  const StreamModel edge_models[] = {StreamModel::kArbitrary,
                                     StreamModel::kRandomOrder,
                                     StreamModel::kAdversarialPerturbed};
  const FaultKind adjacency_only[] = {FaultKind::kSplitList,
                                      FaultKind::kDropReverseEdge};
  for (FaultKind kind : adjacency_only) {
    EXPECT_TRUE(FaultAppliesTo(kind, StreamModel::kAdjacencyList));
    for (StreamModel model : edge_models) {
      EXPECT_FALSE(FaultAppliesTo(kind, model)) << FaultKindName(kind);
      FaultSpec spec;
      spec.kind = kind;
      Status status = spec.ValidateFor(model);
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      // The diagnostic names both the fault and the model it cannot hit.
      EXPECT_NE(status.message().find(FaultKindName(kind)),
                std::string::npos);
      EXPECT_NE(status.message().find(StreamModelName(model)),
                std::string::npos);
    }
  }

  // The factories surface the same typed rejection instead of CHECKing.
  Graph g = gen::ErdosRenyiGnp(20, 0.3, 23);
  ArbitraryOrderStream arbitrary(&g, 1);
  FaultSpec split;
  split.kind = FaultKind::kSplitList;
  auto rejected =
      EdgeFaultInjectingStream<ArbitraryOrderStream>::Make(&arbitrary, split);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // Adjacency side: pass-0 replay divergence is undetectable (pass 0
  // defines the order), so Make rejects it there too.
  AdjacencyListStream adj(&g, 1);
  FaultSpec diverge;
  diverge.kind = FaultKind::kReplayDivergence;
  diverge.pass = 0;
  auto adj_rejected = FaultInjectingStream::Make(&adj, diverge);
  ASSERT_FALSE(adj_rejected.ok());
  EXPECT_EQ(adj_rejected.status().code(), StatusCode::kInvalidArgument);

  // Valid combinations construct fine through the same gates.
  FaultSpec drop;
  drop.kind = FaultKind::kDropPair;
  EXPECT_TRUE(FaultInjectingStream::Make(&adj, drop).ok());
  EXPECT_TRUE(
      EdgeFaultInjectingStream<ArbitraryOrderStream>::Make(&arbitrary, drop)
          .ok());
}

// --- The driver's model gate. ---

TEST(DriverModelGate, ChecksAlgorithmModelAgainstStreamModel) {
  Graph g = gen::ErdosRenyiGnp(20, 0.3, 29);
  AdjacencyListStream adjacency(&g, 2);
  ArbitraryOrderStream arbitrary(&g, 2);
  RandomOrderStream random_order(&g, 2);
  RandomOrderStream perturbed(&g, 2, 0.1);

  core::RandomOrderTriangleOptions ro_options;
  ro_options.prefix_size = 8;

  // The prefix-wedge estimator's analysis is about the order: adjacency
  // and arbitrary streams are rejected before any event flows.
  {
    core::RandomOrderTriangleCounter counter(ro_options);
    auto result = RunPassesChecked(adjacency, &counter);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().message().find("adjacency-list"),
              std::string::npos);
  }
  {
    core::RandomOrderTriangleCounter counter(ro_options);
    auto result = RunPassesChecked(arbitrary, &counter);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
  // Both declared-order models are accepted.
  {
    core::RandomOrderTriangleCounter counter(ro_options);
    EXPECT_TRUE(RunPassesChecked(random_order, &counter).ok());
  }
  {
    core::RandomOrderTriangleCounter counter(ro_options);
    EXPECT_TRUE(RunPassesChecked(perturbed, &counter).ok());
  }

  // Adjacency-list algorithms reject edge streams: their per-list logic
  // would silently double-count u-runs as lists.
  {
    core::OnePassTriangleOptions options;
    options.sample_size = 8;
    options.seed = 1;
    core::OnePassTriangleCounter counter(options);
    auto result = RunPassesChecked(random_order, &counter);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().message().find("random-order"),
              std::string::npos);
  }

  // The arbitrary-order counter runs on any edge model (a random order is
  // one particular arbitrary order), but never on adjacency streams.
  core::ArbitraryTriangleOptions arb_options;
  arb_options.sample_size = g.num_edges();
  arb_options.seed = 3;
  {
    core::ArbitraryOrderTriangleCounter counter(arb_options);
    EXPECT_TRUE(RunPassesChecked(random_order, &counter).ok());
  }
  {
    core::ArbitraryOrderTriangleCounter counter(arb_options);
    auto result = RunPassesChecked(adjacency, &counter);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }

  // A checkpointing run applies the same gate.
  {
    core::RandomOrderTriangleCounter counter(ro_options);
    auto keep = [](int, std::size_t, std::vector<std::uint8_t>) {};
    auto run = RunPassesChecked(adjacency, &counter, {.on_checkpoint = keep});
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
  }
}

}  // namespace
}  // namespace stream
}  // namespace cyclestream
