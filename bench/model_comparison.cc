// Model × generator × estimator comparison (paper Section 1.1): what each
// stream-order promise is worth.
//
// The same graphs are streamed under every model the repo implements —
// adjacency-list order, arbitrary edge order, seeded uniform random order,
// and an ε-perturbed almost-random order — and each model's estimators run
// at matched space budgets. Detection in the arbitrary-order model needs
// two sampled edges (rate (m'/m)²) versus one (m'/m) with lists; the
// random-order model sits between them: its prefix sample is free (the
// order itself is the randomness) but closing a triangle still needs two
// prefix edges. The paper's point is that the adjacency-list gap is
// fundamental (one-pass arbitrary-order 0-vs-T distinguishing is Ω(m), yet
// adjacency-list streams admit m/T^{2/3}).
//
// Every (model, generator) row first replays its stream through the
// per-model contract (stream/validator.h): a violation — list-contiguity
// for adjacency order, exactly-once or permutation divergence for edge
// orders — fails the bench with a nonzero exit. Accuracy lands as one
// curve_point row per (model, generator, sample) in the metrics manifest,
// so the committed BENCH_baseline.json carries the full matrix.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/arbitrary_triangle.h"
#include "core/one_pass_triangle.h"
#include "core/random_order_triangle.h"
#include "core/two_pass_triangle.h"
#include "exact/triangle.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "stream/adjacency_stream.h"
#include "stream/arbitrary_stream.h"
#include "stream/driver.h"
#include "stream/random_order_stream.h"
#include "stream/validator.h"

namespace cyclestream {
namespace {

constexpr double kPerturbEpsilon = 0.1;

struct Row {
  bench::TrialStats list_one_pass;
  bench::TrialStats list_two_pass;
  bench::TrialStats arbitrary;
  bench::TrialStats random_order;
  bench::TrialStats perturbed;
};

// Exits nonzero when a stream breaks its own model's contract — the
// per-row enforcement the matrix promises (each row's numbers are only
// meaningful if its stream actually delivered what the model declares).
template <typename StreamT>
void EnforceContract(const StreamT& s, const char* label) {
  const Status status = stream::ValidateStream(s);
  if (!status.ok()) {
    std::fprintf(stderr, "FAIL: %s violates its model contract: %s\n", label,
                 status.message().c_str());
    std::exit(1);
  }
}

// One (generator, sample) row of the matrix: five (model, estimator)
// batches at the same space budget. The adjacency/arbitrary streams are
// shared read-only across trials (their estimators draw fresh sampling
// randomness per trial); the random-order rows rebuild the stream per
// trial instead — there the permutation IS the randomness and the
// estimator is deterministic.
Row Measure(const Graph& g, const std::string& gen_name, std::size_t sample,
            double truth, int trials) {
  Row row;
  stream::AdjacencyListStream ls(&g, 77);
  stream::ArbitraryOrderStream as(&g, 77);
  EnforceContract(ls, "adjacency-list stream");
  EnforceContract(as, "arbitrary stream");
  EnforceContract(stream::RandomOrderStream(&g, 77), "random-order stream");
  EnforceContract(stream::RandomOrderStream(&g, 77, kPerturbEpsilon),
                  "perturbed stream");
  auto config = [&] {
    obs::Json c = obs::Json::Object();
    c.Set("generator", obs::Json(gen_name));
    c.Set("m", obs::Json(g.num_edges()));
    c.Set("sample", obs::Json(sample));
    return c;
  };
  const std::string suffix =
      "/" + gen_name + "/sample=" + std::to_string(sample);
  std::vector<double> one =
      runtime::TrialRunner::Estimates(bench::RunBatch(
          "list_onepass" + suffix, trials, 200,
          [&](const bench::TrialCtx& ctx) {
            core::OnePassTriangleOptions options;
            options.sample_size = sample;
            options.seed = ctx.seed;
            core::OnePassTriangleCounter counter(options);
            const stream::RunReport report = ctx.Run(ls, &counter);
            return ctx.Result(counter.Estimate(), 0.0, report);
          },
          config()));
  std::vector<double> two =
      runtime::TrialRunner::Estimates(bench::RunBatch(
          "list_twopass" + suffix, trials, 300,
          [&](const bench::TrialCtx& ctx) {
            core::TwoPassTriangleOptions options;
            options.sample_size = sample;
            options.seed = ctx.seed;
            core::TwoPassTriangleCounter counter(options);
            const stream::RunReport report = ctx.Run(ls, &counter);
            return ctx.Result(counter.Estimate(), 0.0, report);
          },
          config()));
  std::vector<double> arb =
      runtime::TrialRunner::Estimates(bench::RunBatch(
          "arbitrary_onepass" + suffix, trials, 100,
          [&](const bench::TrialCtx& ctx) {
            core::ArbitraryTriangleOptions options;
            options.sample_size = sample;
            options.seed = ctx.seed;
            core::ArbitraryOrderTriangleCounter counter(options);
            const stream::RunReport report = ctx.Run(as, &counter);
            return ctx.Result(counter.Estimate(), 0.0, report);
          },
          config()));
  std::vector<double> rnd =
      runtime::TrialRunner::Estimates(bench::RunBatch(
          "random_prefix" + suffix, trials, 400,
          [&](const bench::TrialCtx& ctx) {
            stream::RandomOrderStream s(&g, ctx.seed);
            core::RandomOrderTriangleOptions options;
            options.prefix_size = sample;
            core::RandomOrderTriangleCounter counter(options);
            const stream::RunReport report = ctx.Run(s, &counter);
            return ctx.Result(counter.Estimate(), 0.0, report);
          },
          config()));
  std::vector<double> eps =
      runtime::TrialRunner::Estimates(bench::RunBatch(
          "perturbed_prefix" + suffix, trials, 500,
          [&](const bench::TrialCtx& ctx) {
            stream::RandomOrderStream s(&g, ctx.seed, kPerturbEpsilon);
            core::RandomOrderTriangleOptions options;
            options.prefix_size = sample;
            core::RandomOrderTriangleCounter counter(options);
            const stream::RunReport report = ctx.Run(s, &counter);
            return ctx.Result(counter.Estimate(), 0.0, report);
          },
          config()));
  row.list_one_pass = bench::Summarize(one, truth, 0.25);
  row.list_two_pass = bench::Summarize(two, truth, 0.25);
  row.arbitrary = bench::Summarize(arb, truth, 0.25);
  row.random_order = bench::Summarize(rnd, truth, 0.25);
  row.perturbed = bench::Summarize(eps, truth, 0.25);

  const double x = static_cast<double>(sample);
  bench::CurvePoint("model_accuracy/" + gen_name + "/list_onepass", x,
                    row.list_one_pass.median_rel_error);
  bench::CurvePoint("model_accuracy/" + gen_name + "/list_twopass", x,
                    row.list_two_pass.median_rel_error);
  bench::CurvePoint("model_accuracy/" + gen_name + "/arbitrary", x,
                    row.arbitrary.median_rel_error);
  bench::CurvePoint("model_accuracy/" + gen_name + "/random_order", x,
                    row.random_order.median_rel_error);
  bench::CurvePoint("model_accuracy/" + gen_name + "/perturbed", x,
                    row.perturbed.median_rel_error);
  return row;
}

struct Instance {
  std::string name;
  Graph graph;
  double truth;
};

}  // namespace
}  // namespace cyclestream

int main(int argc, char** argv) {
  using namespace cyclestream;
  const bench::BenchOptions opts = bench::ParseOptions(argc, argv);
  const int kTrials = opts.full ? 40 : 20;

  bench::PrintHeader(
      opts,
      "Model matrix: adjacency-list vs arbitrary vs random-order streams "
      "(Sec 1.1)",
      "arbitrary-order one-pass detection needs two sampled edges ((m'/m)^2) "
      "vs one with the list promise; random order gives the prefix sample "
      "for free; two passes + lists give m/T^{2/3}");

  std::vector<Instance> instances;
  {
    gen::PlantedBackground bg{.stars = 10, .star_degree = 100};
    Graph g = gen::PlantedDisjointTriangles(2000, bg);
    instances.push_back({"planted", std::move(g), 2000.0});
  }
  {
    Graph g = gen::ErdosRenyiGnp(300, 0.1, 5);
    const double truth = static_cast<double>(exact::CountTriangles(g));
    instances.push_back({"er", std::move(g), truth});
  }

  for (const Instance& inst : instances) {
    bench::Note(opts, "\ngenerator %s: m=%zu, T=%.0f\n", inst.name.c_str(),
                inst.graph.num_edges(), inst.truth);
    bench::Note(opts,
                "columns: adj-list 1-pass | adj-list 2-pass (Thm 3.7) | "
                "arbitrary 1-pass | random-order prefix | perturbed "
                "(eps=%.2f) prefix\n",
                kPerturbEpsilon);
    bench::Table table(opts, {{"m'/m", 8, bench::kColStr},
                              {"1p relerr", 10, 3},
                              {"2p relerr", 10, 3},
                              {"arb relerr", 11, 3},
                              {"rnd relerr", 11, 3},
                              {"eps relerr", 11, 3},
                              {"rnd +-25%", 10, 2}});
    table.PrintHeader();
    for (std::size_t divisor : {4, 8, 16, 32}) {
      std::size_t sample = inst.graph.num_edges() / divisor;
      Row row = Measure(inst.graph, inst.name, sample, inst.truth, kTrials);
      const std::string label = "1/" + std::to_string(divisor);
      table.PrintRow({label, row.list_one_pass.median_rel_error,
                      row.list_two_pass.median_rel_error,
                      row.arbitrary.median_rel_error,
                      row.random_order.median_rel_error,
                      row.perturbed.median_rel_error,
                      row.random_order.frac_within});
    }
  }
  bench::Note(opts,
              "\nexpected shape: at equal budgets the arbitrary column "
              "degrades quadratically faster as m' shrinks; random order "
              "tracks it in exponent but with the prefix sample free of "
              "hash-sampling variance; the adjacency-list columns hold (the "
              "promise the paper's model buys); the eps column trails the "
              "random column by at most an O(eps) bias.\n");
  return 0;
}
