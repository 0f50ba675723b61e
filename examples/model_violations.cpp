// The model boundary, live: what happens when a stream breaks its model's
// contract — one injected violation per stream model, each surfacing as a
// typed, recoverable Status instead of a silently wrong estimate.
//
// Part 1 runs the two-pass triangle estimator over a clean adjacency-list
// stream through the strict driver (`RunPassesChecked`), then injects each
// adjacency-list violation class with `FaultInjectingStream` and shows the
// error Status — kind, stream position, and offending list.
//
// Part 2 does the same across the edge-order models: a duplicated edge on an
// arbitrary stream, a dropped edge on a random-order stream (surfacing as
// permutation divergence, because the declared order pins every position),
// and a pass-0 swap on an ε-perturbed stream. It also shows the model gate
// itself: asking to split an adjacency list inside an edge stream is
// rejected up front with a typed kInvalidArgument — there is no list to
// split, and injecting nothing would demonstrate nothing.
//
// Part 3 is crash recovery on the clean adjacency stream: a checked run
// checkpoints at every list boundary, and a fresh counter resumes from a
// mid-stream checkpoint. The program exits nonzero unless the resumed
// estimate equals the uninterrupted one.
//
//   ./model_violations

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/arbitrary_triangle.h"
#include "core/random_order_triangle.h"
#include "core/two_pass_triangle.h"
#include "exact/triangle.h"
#include "gen/chung_lu.h"
#include "stream/adjacency_stream.h"
#include "stream/arbitrary_stream.h"
#include "stream/driver.h"
#include "stream/fault_injection.h"
#include "stream/model.h"
#include "stream/random_order_stream.h"

namespace {

using namespace cyclestream;

void PrintOutcome(const char* label, const StatusOr<stream::RunReport>& r) {
  std::printf("%-34s: %s\n", label,
              r.ok() ? "OK (undetected!)" : r.status().ToString().c_str());
}

// One injected violation on an edge-order stream, run through the strict
// driver with an estimator that actually accepts that model. Inapplicable
// specs never reach the driver: the factory's typed rejection is printed.
template <typename StreamT, typename AlgoT>
void EdgeModelViolation(const char* label, const StreamT& base,
                        stream::FaultSpec spec, AlgoT* algo) {
  auto faulty = stream::EdgeFaultInjectingStream<StreamT>::Make(&base, spec);
  if (!faulty.ok()) {
    std::printf("%-34s: %s\n", label, faulty.status().ToString().c_str());
    return;
  }
  PrintOutcome(label, stream::RunPassesChecked(*faulty, algo));
}

}  // namespace

int main() {
  Graph g = gen::ChungLuPowerLaw(2000, 8.0, 2.3, 17);

  std::printf("graph: n=%zu m=%zu, exact triangles=%llu\n",
              g.num_vertices(), g.num_edges(),
              (unsigned long long)exact::CountTriangles(g));

  // ---- adjacency-list model -------------------------------------------
  std::printf("\n[%s]\n",
              stream::StreamModelName(stream::StreamModel::kAdjacencyList));
  stream::AdjacencyListStream s(&g, 4);
  core::TwoPassTriangleOptions options;
  options.sample_size = 8 * g.num_edges() + 8;  // full sample: exact count
  options.seed = 9;

  {
    core::TwoPassTriangleCounter counter(options);
    auto report = stream::RunPassesChecked(s, &counter);
    std::printf("%-34s: %s, estimate=%.0f (%zu pairs)\n", "clean stream",
                report.ok() ? "OK" : report.status().ToString().c_str(),
                counter.Estimate(), report->pairs_processed);
  }

  const stream::FaultKind faults[] = {
      stream::FaultKind::kSplitList,       stream::FaultKind::kDropPair,
      stream::FaultKind::kDuplicatePair,   stream::FaultKind::kDropReverseEdge,
      stream::FaultKind::kTruncatePass,    stream::FaultKind::kReplayDivergence,
  };
  for (stream::FaultKind kind : faults) {
    stream::FaultSpec spec;
    spec.kind = kind;
    // Replay can only diverge on a later pass; pass 0 defines the order.
    spec.pass = kind == stream::FaultKind::kReplayDivergence ? 1 : 0;
    spec.seed = 23;
    stream::FaultInjectingStream faulty(&s, spec);
    core::TwoPassTriangleCounter counter(options);
    PrintOutcome(stream::FaultKindName(kind),
                 stream::RunPassesChecked(faulty, &counter));
  }

  // ---- arbitrary-order model ------------------------------------------
  std::printf("\n[%s]\n",
              stream::StreamModelName(stream::StreamModel::kArbitrary));
  stream::ArbitraryOrderStream arb(&g, 7);
  core::ArbitraryTriangleOptions arb_options;
  arb_options.sample_size = g.num_edges();  // full sample: exact count
  arb_options.seed = 9;
  {
    core::ArbitraryOrderTriangleCounter counter(arb_options);
    auto report = stream::RunPassesChecked(arb, &counter);
    std::printf("%-34s: %s, estimate=%.0f\n", "clean stream",
                report.ok() ? "OK" : report.status().ToString().c_str(),
                counter.Estimate());
  }
  {
    // Each edge must arrive exactly once: a duplicated element is flagged
    // at its in-stream position on any edge model.
    stream::FaultSpec spec;
    spec.kind = stream::FaultKind::kDuplicatePair;
    spec.seed = 23;
    core::ArbitraryOrderTriangleCounter counter(arb_options);
    EdgeModelViolation("duplicate-pair", arb, spec, &counter);
  }
  {
    // The model gate: splitting an adjacency list presupposes lists; the
    // factory rejects the injection itself with a typed Status.
    stream::FaultSpec spec;
    spec.kind = stream::FaultKind::kSplitList;
    spec.seed = 23;
    core::ArbitraryOrderTriangleCounter counter(arb_options);
    EdgeModelViolation("split-list (inapplicable)", arb, spec, &counter);
  }

  // ---- random-order model ---------------------------------------------
  std::printf("\n[%s]\n",
              stream::StreamModelName(stream::StreamModel::kRandomOrder));
  stream::RandomOrderStream ro(&g, 11);
  core::RandomOrderTriangleOptions ro_options;
  ro_options.prefix_size = g.num_edges();  // full prefix: exact count
  {
    core::RandomOrderTriangleCounter counter(ro_options);
    auto report = stream::RunPassesChecked(ro, &counter);
    std::printf("%-34s: %s, estimate=%.0f\n", "clean stream",
                report.ok() ? "OK" : report.status().ToString().c_str(),
                counter.Estimate());
  }
  {
    // The seed pins the whole permutation, so even a *dropped* edge is
    // caught in-stream: every later element sits one slot early, and the
    // contract flags the divergence at the drop position.
    stream::FaultSpec spec;
    spec.kind = stream::FaultKind::kDropPair;
    spec.seed = 23;
    core::RandomOrderTriangleCounter counter(ro_options);
    EdgeModelViolation("drop-pair (as divergence)", ro, spec, &counter);
  }

  // ---- adversarially-perturbed model ----------------------------------
  std::printf(
      "\n[%s]\n",
      stream::StreamModelName(stream::StreamModel::kAdversarialPerturbed));
  stream::RandomOrderStream perturbed(&g, 11, /*epsilon=*/0.1);
  {
    core::RandomOrderTriangleCounter counter(ro_options);
    auto report = stream::RunPassesChecked(perturbed, &counter);
    std::printf("%-34s: %s, estimate=%.0f\n", "clean stream",
                report.ok() ? "OK" : report.status().ToString().c_str(),
                counter.Estimate());
  }
  {
    // Declared-order models admit replay divergence even on pass 0: the
    // ε-perturbed permutation is still fixed by (seed, ε), so a swapped
    // adjacent pair detectably diverges from it.
    stream::FaultSpec spec;
    spec.kind = stream::FaultKind::kReplayDivergence;
    spec.pass = 0;
    spec.seed = 23;
    core::RandomOrderTriangleCounter counter(ro_options);
    EdgeModelViolation("replay-divergence (pass 0)", perturbed, spec,
                       &counter);
  }

  std::printf(
      "\nthe trusted driver (RunPasses) would have returned an arbitrary\n"
      "estimate on each of these streams; the strict driver rejects them\n"
      "with the first violation, its model-appropriate kind, and its\n"
      "stream position instead.\n");

  // ---- checkpoint and resume ------------------------------------------
  std::printf("\n[checkpoint/resume]\n");
  const std::size_t lists = g.num_vertices();
  // A sampled counter: every checkpoint serializes the whole state, so a
  // small sample keeps one envelope per list cheap.
  core::TwoPassTriangleOptions sampled = options;
  sampled.sample_size = g.num_edges() / 64;
  // Checkpoint at every list boundary; keep the one halfway through pass 1.
  std::vector<std::uint8_t> mid;
  core::TwoPassTriangleCounter counter(sampled);
  auto report = stream::RunPassesChecked(
      s, &counter,
      {.on_checkpoint = [&](int pass, std::size_t lists_done,
                            std::vector<std::uint8_t> bytes) {
        if (pass == 1 && lists_done == lists / 2) mid = std::move(bytes);
      }});
  // ...the process dies; later a fresh counter finishes from those bytes.
  core::TwoPassTriangleCounter fresh(sampled);
  auto resumed = stream::RunPassesChecked(s, &fresh, {.resume_from = mid});
  const bool same = report.ok() && resumed.ok() &&
                    fresh.Estimate() == counter.Estimate() &&
                    resumed->pairs_processed == report->pairs_processed;
  std::printf("%-34s: %s, estimate=%.0f (uninterrupted %.0f), %zu bytes\n",
              "resumed from pass 1, list mid",
              resumed.ok() ? "OK" : resumed.status().ToString().c_str(),
              fresh.Estimate(), counter.Estimate(), mid.size());
  if (!same) {
    std::printf("resumed run diverged from the uninterrupted run\n");
    return 1;
  }
  return 0;
}
