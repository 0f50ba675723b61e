// Figure 1a / Theorem 5.1: one-pass triangle counting needs Ω(m / sqrt(T))
// space (conditional on 3-party NOF pointer-jumping being hard).
//
// Executes the reduction: 3-PJ instances are encoded as gadget graphs with
// 0 vs k² triangles, streamed in player order (Alice → Bob → Charlie), and
// the one-pass estimator's state at each player boundary is the protocol
// message. We report distinguishing accuracy and message size as the sample
// size sweeps across m / sqrt(T): accuracy is ~chance far below the
// threshold and approaches 1 above it, i.e. small messages cannot decide
// 3-PJ — exactly the content of the lower bound.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/one_pass_triangle.h"
#include "lowerbound/comm_problems.h"
#include "lowerbound/gadget_triangle.h"
#include "lowerbound/protocol.h"

namespace cyclestream {
namespace {

struct SweepPoint {
  double accuracy = 0.0;
  std::size_t max_message = 0;
};

// Gadgets are built once per (instance, answer) and shared read-only across
// the trial fan-out; each trial derives its counter and protocol seeds from
// its TrialRunner seed, so results are independent of the thread count.
SweepPoint Measure(const std::vector<lowerbound::Gadget>& gadgets,
                   double threshold, std::size_t sample,
                   int trials_per_gadget, std::uint64_t seed_base) {
  const std::size_t total = gadgets.size() * trials_per_gadget;
  obs::Json config = obs::Json::Object();
  config.Set("sample", obs::Json(sample));
  config.Set("gadgets", obs::Json(gadgets.size()));
  // Protocol runs (player-segmented, no driver) carry the max message size
  // in reported_peak_bytes; they open no pass or list spans.
  std::vector<runtime::TrialResult> results = bench::RunBatch(
      "protocol/sample=" + std::to_string(sample), total, seed_base,
      [&](const bench::TrialCtx& ctx) {
        const lowerbound::Gadget& gadget =
            gadgets[ctx.index / trials_per_gadget];
        core::OnePassTriangleOptions options;
        options.sample_size = sample;
        options.seed = ctx.seed;
        core::OnePassTriangleCounter counter(options);
        lowerbound::ProtocolRun run = lowerbound::RunProtocol(
            gadget, &counter, runtime::TrialSeed(ctx.seed, 1));
        bool guess = counter.Estimate() >= threshold;
        runtime::TrialResult r;
        r.estimate = (guess == gadget.answer) ? 1.0 : 0.0;
        r.reported_peak_bytes = run.max_message_bytes;
        return r;
      },
      std::move(config));
  SweepPoint point;
  double correct = 0;
  for (const runtime::TrialResult& r : results) correct += r.estimate;
  point.accuracy = correct / static_cast<double>(total);
  point.max_message = runtime::TrialRunner::MaxReportedPeak(results);
  return point;
}

}  // namespace
}  // namespace cyclestream

int main(int argc, char** argv) {
  using namespace cyclestream;
  const bench::BenchOptions opts = bench::ParseOptions(argc, argv);
  const std::size_t r = opts.full ? 600 : 300;
  const std::size_t k = opts.full ? 56 : 40;  // T = k^2
  const int kInstances = opts.full ? 6 : 4;
  const int kTrials = opts.full ? 8 : 5;

  bench::PrintHeader(
      opts, "Figure 1a / Theorem 5.1: one-pass triangle counting vs 3-PJ",
      "one-pass distinguishing 0 vs T triangles needs Omega(f_pj(m/sqrt(T))) "
      "space; conjectured Omega(m/sqrt(T))");

  std::vector<lowerbound::Gadget> gadgets;
  for (int inst = 0; inst < kInstances; ++inst) {
    for (bool answer : {false, true}) {
      auto pj = lowerbound::PointerJumpInstance::Random(r, answer, 97 + inst);
      gadgets.push_back(lowerbound::BuildPointerJumpingGadget(pj, k));
    }
  }
  // gadgets[1] is the first answer=true instance; answer=false gadgets
  // promise 0 cycles, so probe the true one for T.
  const lowerbound::Gadget& probe = gadgets[1];
  const double m = static_cast<double>(probe.graph.num_edges());
  const double t_cycles = static_cast<double>(probe.promised_cycles);
  const double threshold = m / std::sqrt(t_cycles);
  const double decision = static_cast<double>(k) * k / 2.0;
  bench::Note(opts,
              "gadget: r=%zu k=%zu -> m=%zu, T=k^2=%.0f, m/sqrt(T)=%.0f\n\n",
              r, k, probe.graph.num_edges(), t_cycles, threshold);

  bench::Table table(opts, {{"m'", 12, bench::kColInt},
                            {"m'/(m/sqrtT)", 12, 2},
                            {"accuracy", 10, 2},
                            {"max message", 14, bench::kColStr}});
  table.PrintHeader();
  for (double factor : {0.25, 1.0, 4.0, 16.0, 64.0}) {
    std::size_t sample = std::max<std::size_t>(
        2, static_cast<std::size_t>(factor * threshold));
    SweepPoint pt = Measure(gadgets, decision, sample, kTrials,
                            500 + static_cast<std::uint64_t>(factor * 16));
    table.PrintRow({sample, factor, pt.accuracy,
                    bench::FormatBytes(pt.max_message)});
    bench::CurvePoint("fig1a_accuracy_vs_sample",
                      static_cast<double>(sample), pt.accuracy);
  }
  bench::Note(opts,
              "\nexpected shape: accuracy ~0.5 at small m' (the message is "
              "too small to carry the pointer), rising toward 1.0 once m' "
              "exceeds m/sqrt(T) by a constant factor.\n");
  return 0;
}
