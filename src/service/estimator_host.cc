#include "service/estimator_host.h"

#include <string>
#include <utility>

#include "core/exact_stream.h"
#include "core/four_cycle.h"
#include "core/one_pass_four_cycle.h"
#include "core/one_pass_triangle.h"
#include "core/random_order_triangle.h"
#include "core/triangle_distinguisher.h"
#include "core/two_pass_triangle.h"
#include "core/wedge_sampling_triangle.h"
#include "snapshot/codec.h"

namespace cyclestream {
namespace service {
namespace {

template <typename AlgoT>
double EstimateOf(const stream::StreamAlgorithm& algo) {
  return static_cast<const AlgoT&>(algo).Estimate();
}

double ExactEstimate(const stream::StreamAlgorithm& algo) {
  return static_cast<double>(
      static_cast<const core::ExactStreamTriangleCounter&>(algo).triangles());
}

double DistinguisherEstimate(const stream::StreamAlgorithm& algo) {
  return static_cast<const core::TriangleDistinguisher&>(algo)
      .result()
      .naive_estimate;
}

}  // namespace

const char* KindName(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kExactStreamTriangle: return "exact-stream";
    case EstimatorKind::kOnePassTriangle: return "one-pass-triangle";
    case EstimatorKind::kTriangleDistinguisher: return "triangle-distinguisher";
    case EstimatorKind::kTwoPassTriangle: return "two-pass-triangle";
    case EstimatorKind::kWedgeSamplingTriangle: return "wedge-sampling";
    case EstimatorKind::kOnePassFourCycle: return "one-pass-four-cycle";
    case EstimatorKind::kTwoPassFourCycle: return "two-pass-four-cycle";
    case EstimatorKind::kRandomOrderTriangle: return "random-order-triangle";
  }
  return "unknown";
}

StatusOr<HostedEstimator> MakeHosted(const EstimatorSpec& spec) {
  const std::size_t slots = static_cast<std::size_t>(spec.slots);
  HostedEstimator hosted;
  switch (spec.kind) {
    case EstimatorKind::kExactStreamTriangle: {
      hosted.algo = std::make_unique<core::ExactStreamTriangleCounter>();
      hosted.estimate = &ExactEstimate;
      return hosted;
    }
    case EstimatorKind::kOnePassTriangle: {
      core::OnePassTriangleOptions options;
      options.sample_size = slots;
      options.seed = spec.seed;
      hosted.algo = std::make_unique<core::OnePassTriangleCounter>(options);
      hosted.estimate = &EstimateOf<core::OnePassTriangleCounter>;
      return hosted;
    }
    case EstimatorKind::kTriangleDistinguisher: {
      core::TriangleDistinguisherOptions options;
      options.sample_size = slots;
      options.seed = spec.seed;
      hosted.algo = std::make_unique<core::TriangleDistinguisher>(options);
      hosted.estimate = &DistinguisherEstimate;
      return hosted;
    }
    case EstimatorKind::kTwoPassTriangle: {
      core::TwoPassTriangleOptions options;
      options.sample_size = slots;
      options.seed = spec.seed;
      hosted.algo = std::make_unique<core::TwoPassTriangleCounter>(options);
      hosted.estimate = &EstimateOf<core::TwoPassTriangleCounter>;
      return hosted;
    }
    case EstimatorKind::kWedgeSamplingTriangle: {
      core::WedgeSamplingOptions options;
      options.reservoir_size = slots;
      options.seed = spec.seed;
      hosted.algo =
          std::make_unique<core::WedgeSamplingTriangleCounter>(options);
      hosted.estimate = &EstimateOf<core::WedgeSamplingTriangleCounter>;
      return hosted;
    }
    case EstimatorKind::kOnePassFourCycle: {
      core::OnePassFourCycleOptions options;
      options.sample_size = slots;
      options.seed = spec.seed;
      hosted.algo = std::make_unique<core::OnePassFourCycleCounter>(options);
      hosted.estimate = &EstimateOf<core::OnePassFourCycleCounter>;
      return hosted;
    }
    case EstimatorKind::kTwoPassFourCycle: {
      core::FourCycleOptions options;
      options.sample_size = slots;
      options.seed = spec.seed;
      hosted.algo = std::make_unique<core::TwoPassFourCycleCounter>(options);
      hosted.estimate = &EstimateOf<core::TwoPassFourCycleCounter>;
      return hosted;
    }
    case EstimatorKind::kRandomOrderTriangle: {
      core::RandomOrderTriangleOptions options;
      options.prefix_size = slots;
      options.seed = spec.seed;
      hosted.algo = std::make_unique<core::RandomOrderTriangleCounter>(options);
      hosted.estimate = &EstimateOf<core::RandomOrderTriangleCounter>;
      return hosted;
    }
  }
  return Status::InvalidArgument(
      "unknown estimator kind " +
      std::to_string(static_cast<unsigned>(spec.kind)));
}

void SerializeSpec(const EstimatorSpec& spec, snapshot::SnapshotWriter& w) {
  snapshot::Saver ar(w);
  EstimatorSpec::Fields(spec, ar);
}

StatusOr<EstimatorSpec> RestoreSpec(snapshot::SnapshotReader& r) {
  EstimatorSpec spec;
  snapshot::Loader ar(r);
  EstimatorSpec::Fields(spec, ar);
  if (!ar.ok()) return ar.status();
  const unsigned kind = static_cast<unsigned>(spec.kind);
  if (kind >= kEstimatorKinds) {
    return Status::InvalidArgument("unknown estimator kind " +
                                   std::to_string(kind));
  }
  return spec;
}

}  // namespace service
}  // namespace cyclestream
