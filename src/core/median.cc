#include "core/median.h"

#include <algorithm>
#include <functional>

#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

ParallelCopies::ParallelCopies(
    std::vector<std::unique_ptr<stream::StreamAlgorithm>> copies)
    : copies_(std::move(copies)) {
  CYCLESTREAM_CHECK(!copies_.empty());
  for (const auto& copy : copies_) {
    CYCLESTREAM_CHECK_EQ(copy->passes(), copies_.front()->passes());
  }
}

int ParallelCopies::passes() const { return copies_.front()->passes(); }

bool ParallelCopies::AcceptsModel(stream::StreamModel model) const {
  for (const auto& copy : copies_) {
    if (!copy->AcceptsModel(model)) return false;
  }
  return true;
}

void ParallelCopies::BeginPass(int pass) {
  for (auto& copy : copies_) copy->BeginPass(pass);
}

void ParallelCopies::BeginList(VertexId u) {
  for (auto& copy : copies_) copy->BeginList(u);
}

void ParallelCopies::OnPair(VertexId u, VertexId v) {
  for (auto& copy : copies_) copy->OnPair(u, v);
}

void ParallelCopies::OnListBatch(VertexId u, std::span<const VertexId> list) {
  for (auto& copy : copies_) copy->OnListBatch(u, list);
}

void ParallelCopies::EndList(VertexId u) {
  for (auto& copy : copies_) copy->EndList(u);
}

void ParallelCopies::EndPass(int pass) {
  for (auto& copy : copies_) copy->EndPass(pass);
}

std::size_t ParallelCopies::CurrentSpaceBytes() const {
  std::size_t total = 0;
  for (const auto& copy : copies_) total += copy->CurrentSpaceBytes();
  return total;
}

stream::RunReport ParallelCopies::SumReports(
    const std::vector<stream::RunReport>& reports) {
  // Every copy read the whole stream, so copy 0's counts are the lockstep
  // ones: each pair once per pass.
  stream::RunReport sum = reports.front();
  for (std::size_t c = 1; c < reports.size(); ++c) {
    const stream::RunReport& r = reports[c];
    sum.reported_peak_bytes += r.reported_peak_bytes;
    sum.audited_peak_bytes += r.audited_peak_bytes;
    // At any sample the group's divergence is at most the sum of the
    // copies' divergences.
    sum.max_divergence_bytes += r.max_divergence_bytes;
    for (std::size_t p = 0; p < sum.per_pass.size(); ++p) {
      sum.per_pass[p].reported_peak_bytes += r.per_pass[p].reported_peak_bytes;
      sum.per_pass[p].audited_peak_bytes += r.per_pass[p].audited_peak_bytes;
    }
  }
  return sum;
}

double Median(std::vector<double> values) {
  CYCLESTREAM_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// Shared driver: builds `copies` algorithms via `make`, runs them in
// parallel over the stream (on `pool` when given), extracts per-copy
// estimates via `extract`. Copy c's seed is Mix128To64(seed, c) in every
// mode, so the estimates are independent of the pool.
AmplifiedEstimate RunAmplified(
    const stream::AdjacencyListStream& stream, int copies, std::uint64_t seed,
    runtime::ThreadPool* pool,
    const std::function<std::unique_ptr<stream::StreamAlgorithm>(std::uint64_t)>&
        make,
    const std::function<double(stream::StreamAlgorithm*)>& extract) {
  CYCLESTREAM_CHECK_GE(copies, 1);
  std::vector<std::unique_ptr<stream::StreamAlgorithm>> algos;
  algos.reserve(copies);
  for (int c = 0; c < copies; ++c) {
    algos.push_back(make(Mix128To64(seed, static_cast<std::uint64_t>(c))));
  }
  ParallelCopies group(std::move(algos));
  AmplifiedEstimate out;
  out.report = group.Run(stream, pool);
  out.copy_estimates.reserve(copies);
  for (std::size_t c = 0; c < group.num_copies(); ++c) {
    out.copy_estimates.push_back(extract(group.copy(c)));
  }
  out.estimate = Median(out.copy_estimates);
  return out;
}

}  // namespace

AmplifiedEstimate EstimateTriangles(const stream::AdjacencyListStream& stream,
                                    std::size_t sample_size, int copies,
                                    std::uint64_t seed,
                                    runtime::ThreadPool* pool) {
  return RunAmplified(
      stream, copies, seed, pool,
      [&](std::uint64_t copy_seed) {
        TwoPassTriangleOptions options;
        options.sample_size = sample_size;
        options.seed = copy_seed;
        return std::make_unique<TwoPassTriangleCounter>(options);
      },
      [](stream::StreamAlgorithm* algo) {
        return static_cast<TwoPassTriangleCounter*>(algo)->Estimate();
      });
}

AmplifiedEstimate EstimateTrianglesOnePass(
    const stream::AdjacencyListStream& stream, std::size_t sample_size,
    int copies, std::uint64_t seed, runtime::ThreadPool* pool) {
  return RunAmplified(
      stream, copies, seed, pool,
      [&](std::uint64_t copy_seed) {
        OnePassTriangleOptions options;
        options.sample_size = sample_size;
        options.seed = copy_seed;
        return std::make_unique<OnePassTriangleCounter>(options);
      },
      [](stream::StreamAlgorithm* algo) {
        return static_cast<OnePassTriangleCounter*>(algo)->Estimate();
      });
}

AmplifiedEstimate EstimateFourCycles(const stream::AdjacencyListStream& stream,
                                     std::size_t sample_size, int copies,
                                     std::uint64_t seed,
                                     runtime::ThreadPool* pool) {
  return RunAmplified(
      stream, copies, seed, pool,
      [&](std::uint64_t copy_seed) {
        FourCycleOptions options;
        options.sample_size = sample_size;
        options.seed = copy_seed;
        return std::make_unique<TwoPassFourCycleCounter>(options);
      },
      [](stream::StreamAlgorithm* algo) {
        return static_cast<TwoPassFourCycleCounter*>(algo)->Estimate();
      });
}

}  // namespace core
}  // namespace cyclestream
