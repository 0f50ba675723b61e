// Type-erased hosting of the paper's estimators inside the service layer.
//
// The service keys thousands of estimator instances by stream id; what it
// stores per stream is a `HostedEstimator` — the StreamAlgorithm plus a
// uniform estimate accessor — built from a flat `EstimatorSpec`. The spec
// (kind + slot count + seed) is the *complete* construction recipe: it
// serializes into the shard checkpoint manifest, and restore rebuilds a
// same-options instance before handing it the estimator's own snapshot
// payload, exactly the contract StreamAlgorithm::Restore demands.

#ifndef CYCLESTREAM_SERVICE_ESTIMATOR_HOST_H_
#define CYCLESTREAM_SERVICE_ESTIMATOR_HOST_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "snapshot/snapshot.h"
#include "stream/algorithm.h"
#include "util/status.h"

namespace cyclestream {
namespace service {

/// Every estimator with a Serialize/Restore contract, hostable by the
/// service. Values are the checkpoint wire encoding — append only.
enum class EstimatorKind : std::uint8_t {
  kExactStreamTriangle = 0,
  kOnePassTriangle = 1,
  kTriangleDistinguisher = 2,
  kTwoPassTriangle = 3,
  kWedgeSamplingTriangle = 4,
  kOnePassFourCycle = 5,
  kTwoPassFourCycle = 6,
  kRandomOrderTriangle = 7,
};

inline constexpr int kEstimatorKinds = 8;

/// Flat construction recipe for a hosted estimator. `slots` is the kind's
/// space knob (edge-sample size m', reservoir capacity for wedge sampling,
/// or prefix size for the random-order counter; ignored by the exact
/// counter), `seed` its hash/sampling seed.
struct EstimatorSpec {
  EstimatorKind kind = EstimatorKind::kExactStreamTriangle;
  std::uint64_t slots = 1;
  std::uint64_t seed = 1;

  friend bool operator==(const EstimatorSpec&, const EstimatorSpec&) = default;

  /// Checkpoint layout (snapshot/codec.h).
  static void Fields(auto& self, auto& ar) {
    ar.U8(self.kind);
    ar.U64(self.slots);
    ar.U64(self.seed);
  }
};

/// A hosted instance: the algorithm plus a uniform estimate read-out (the
/// kind's headline point estimate — triangle/4-cycle count estimate, or the
/// distinguisher's naive unbiased estimate).
struct HostedEstimator {
  std::unique_ptr<stream::StreamAlgorithm> algo;
  double (*estimate)(const stream::StreamAlgorithm&) = nullptr;
};

/// Human-readable kind name ("two-pass-triangle", ...).
const char* KindName(EstimatorKind kind);

/// Builds a fresh instance per `spec`, or kInvalidArgument for an unknown
/// kind byte (reachable only through a corrupt/foreign checkpoint, since
/// the envelope CRC vouches for the bytes).
StatusOr<HostedEstimator> MakeHosted(const EstimatorSpec& spec);

/// Spec codec for checkpoint manifests. RestoreSpec returns
/// kInvalidArgument for an unknown kind byte.
void SerializeSpec(const EstimatorSpec& spec, snapshot::SnapshotWriter& w);
StatusOr<EstimatorSpec> RestoreSpec(snapshot::SnapshotReader& r);

}  // namespace service
}  // namespace cyclestream

#endif  // CYCLESTREAM_SERVICE_ESTIMATOR_HOST_H_
