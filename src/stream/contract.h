// Per-model stream contracts: the violation taxonomy and the contract
// hierarchy that checks each stream model's actual promises.
//
// One adjacency-list checker cannot serve every model: the models make
// *different* promises — and checking a promise a model never made is as
// wrong as missing one it did:
//
//   - adjacency-list (stream/validator.h, `AdjacencyListContract`): both
//     pair copies appear, lists are contiguous, replays are order-identical.
//     List-contiguity violations exist ONLY here.
//   - arbitrary / random-order / adversarial-perturbed (`EdgeStreamContract`
//     below): each edge appears exactly once per pass — duplicates and
//     missing edges are flagged with their stream positions — and, for the
//     models whose order is pinned by a declared permutation seed
//     (random-order, ε-perturbed), the delivered pass-0 order is checked
//     element-by-element against the declared permutation
//     (kPermutationDivergence). Contiguity is never checked: the u-runs an
//     edge stream groups its elements into are packaging, not promises.
//
// Both contracts consume the same BeginPass/BeginList/OnPair/OnList/EndList/
// EndPass event grammar the driver's sinks speak, record the *first*
// violation with its stream position, tally every violation by kind, and
// snapshot/restore their complete state for crash recovery.

#ifndef CYCLESTREAM_STREAM_CONTRACT_H_
#define CYCLESTREAM_STREAM_CONTRACT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "snapshot/snapshot.h"
#include "stream/model.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {

/// Classes of model-contract violations a stream can exhibit. The first
/// three are adjacency-list-only (contiguity breaks); the rest apply to any
/// model, with per-model meanings documented on each contract.
enum class ViolationKind {
  kSplitList,        // a list begins again after it already ended
  kInterleavedList,  // a list begins while another is still open
  kForeignPair,      // pair (u, v) where {u, v} is not an edge / u unknown
  kDuplicatePair,    // the same pair (or edge) delivered twice in one scope
  kMissingPair,      // a list/pass ended short of its promised elements
  kTruncatedPass,    // pass ended mid-list or short of the full stream
  kReplayDivergence, // a later pass diverged from the first pass's order
  kPermutationDivergence,  // pass 0 diverged from the declared (seeded)
                           // permutation of a random-order stream
};

/// Number of ViolationKind values (for by-kind counter arrays).
inline constexpr std::size_t kNumViolationKinds = 8;

/// Name of a violation kind ("split-list", ...). Stable, test-friendly.
const char* ViolationKindName(ViolationKind kind);

/// The first contract violation observed in a stream.
struct Violation {
  ViolationKind kind;
  int pass = 0;              // pass in which the violation surfaced
  std::size_t position = 0;  // stream elements delivered before it (0-based)
  VertexId list = 0;         // adjacency list / u-run being streamed (if any)
  std::string detail;        // human-readable specifics

  /// "replay-divergence at pass 1 pair 17 (list 4): ..." — the message used
  /// for the Status produced by `ModelContract::ToStatus()`.
  std::string ToString() const;
};

namespace internal {
// Checkpoint layout of an optional violation, shared by the contracts'
// Fields: a presence flag, then the violation's fields.
void ViolationFields(auto& violation, auto& ar) {
  bool present = violation.has_value();
  ar.Bool(present);
  if (!present) return;
  if constexpr (ar.kLoading) violation.emplace();
  ar.U8(violation->kind);
  ar.U64(violation->pass);
  ar.U64(violation->position);
  ar.U32(violation->list);
  ar.String(violation->detail);
}
}  // namespace internal

/// Abstract contract checker for one stream model. Concrete contracts
/// (`AdjacencyListContract` in stream/validator.h, `EdgeStreamContract`
/// below) consume the same event grammar an algorithm does, record the
/// first violation with its position, and keep counters over every
/// violation observed. Only the first violation is recorded; subsequent
/// events are still consumed cheaply so a driver can finish its replay
/// loop without special-casing.
class ModelContract {
 public:
  ModelContract(const Graph* graph, ModelDescriptor descriptor);
  virtual ~ModelContract() = default;

  /// Begins pass `pass` (0-based, consecutive). Must be called before the
  /// pass's list events; `EndPass` must close it.
  virtual void BeginPass(int pass) = 0;
  virtual void BeginList(VertexId u) = 0;
  virtual void OnPair(VertexId u, VertexId v) = 0;

  /// Batched form of `list.size()` OnPair calls: checks every element
  /// (identical counters and violation positions to the per-pair loop; the
  /// whole span is consumed even after a violation) and returns the number
  /// of leading elements consumed while `ok()` still held — the prefix a
  /// strict driver may deliver to its algorithm, matching exactly what
  /// per-pair interleaving would have delivered.
  virtual std::size_t OnList(VertexId u, std::span<const VertexId> list);

  virtual void EndList(VertexId u) = 0;

  /// Ends the current pass, running end-of-pass checks.
  virtual void EndPass(int pass) = 0;

  /// The model this contract checks, as declared by the stream.
  const ModelDescriptor& descriptor() const { return descriptor_; }

  /// True while no violation has been observed.
  bool ok() const { return !violation_.has_value(); }

  /// The pass begun and not yet ended, if any.
  std::optional<int> open_pass() const {
    return in_pass_ ? std::optional<int>(pass_) : std::nullopt;
  }

  /// The first violation, if any.
  const std::optional<Violation>& violation() const { return violation_; }

  /// OK, or a Status describing the first violation (kFailedPrecondition
  /// for contiguity/replay/permutation breaks, kDataLoss for missing
  /// elements/truncation, kInvalidArgument for foreign/duplicate elements).
  Status ToStatus() const;

  /// Work/violation tallies over the contract's lifetime. Unlike
  /// `violation()` (first only), `violations_by_kind` counts every
  /// violation *observed*.
  struct CheckCounters {
    std::uint64_t events_checked = 0;  // all Begin*/On*/End* events
    std::uint64_t passes_checked = 0;
    std::uint64_t lists_checked = 0;
    std::uint64_t pairs_checked = 0;
    std::uint64_t violations_total = 0;
    std::array<std::uint64_t, kNumViolationKinds> violations_by_kind{};
  };
  const CheckCounters& counters() const { return counters_; }

  /// Publishes the counters to `metrics` as "validator.events_checked",
  /// "validator.pairs_checked", "validator.violations_total", and
  /// "validator.violations.<kind-name>" (only kinds with count > 0).
  void ExportMetrics(obs::MetricsRegistry* metrics) const;

  /// Writes the contract's complete state for crash-recovery checkpoints.
  /// Only valid at list/run boundaries. A fresh contract over the same
  /// graph and descriptor that Restore()s these bytes continues exactly
  /// where this one stopped.
  virtual void Serialize(snapshot::SnapshotWriter& w) const = 0;

  /// Inverse of Serialize on a fresh contract for the same graph and model;
  /// returns kFailedPrecondition when the snapshot's graph shape or model
  /// descriptor disagrees or its pass does not fit an int, and kDataLoss
  /// when it claims more elements than its payload holds.
  virtual Status Restore(snapshot::SnapshotReader& r) = 0;

 protected:
  ModelContract(const ModelContract&) = default;
  ModelContract(ModelContract&&) = default;
  ModelContract& operator=(const ModelContract&) = default;
  ModelContract& operator=(ModelContract&&) = default;

  /// Tallies one observed violation (counters only).
  void CountViolation(ViolationKind kind);

  /// Records `v` as the run's violation iff none is recorded yet.
  void SetFirst(Violation v);

  /// Checkpoint layout of the state every contract shares (snapshot/
  /// codec.h): graph shape and model descriptor as options, so a
  /// checkpoint only resumes against the same graph streamed under the same
  /// model; first violation; counters; pass bookkeeping. Subclasses' Fields
  /// run it first.
  static void CommonFields(auto& self, auto& ar) {
    ar.Option(self.graph_->num_vertices(), "graph vertices");
    ar.Option(self.graph_->num_edges(), "graph edges");
    ar.Option(self.descriptor_.model, "stream model");
    ar.Option(self.descriptor_.order_seed, "order seed");
    ar.Option(self.descriptor_.epsilon, "epsilon");
    internal::ViolationFields(self.violation_, ar);
    ar.U64(self.counters_.events_checked);
    ar.U64(self.counters_.passes_checked);
    ar.U64(self.counters_.lists_checked);
    ar.U64(self.counters_.pairs_checked);
    ar.U64(self.counters_.violations_total);
    for (auto& count : self.counters_.violations_by_kind) ar.U64(count);
    ar.Pass(self.pass_, std::numeric_limits<int>::max());
    ar.Bool(self.in_pass_);
    ar.U64(self.position_);
  }

  const Graph* graph_;
  ModelDescriptor descriptor_;
  std::optional<Violation> violation_;
  CheckCounters counters_;
  int pass_ = -1;
  bool in_pass_ = false;
  std::size_t position_ = 0;  // stream elements delivered this pass
};

/// Contract for the single-copy edge-stream models (arbitrary,
/// random-order, adversarial-perturbed). Promises checked:
///   - every element is an edge of the graph (foreign otherwise),
///   - each edge appears exactly once per pass: duplicates are flagged at
///     the position of the second copy, missing edges at end of pass with
///     the count delivered and a named absent edge,
///   - when the stream declares its permutation (`expected_order` non-null;
///     random-order and ε-perturbed models), pass 0 is checked element-by-
///     element against it (kPermutationDivergence at the first mismatch),
///   - later passes must replay pass 0's element order exactly
///     (kReplayDivergence), mirroring the adjacency model's replay promise.
/// BeginList/EndList events are accepted and counted but carry no
/// contract meaning: u-runs are how edge streams package elements for the
/// two-level delivery path, not a model promise, so contiguity violations
/// are never reported here (tests/model_contract_test.cc pins this).
///
/// Cost: one binary search per element, `Graph::EdgeSlot`, finds the
/// edge's CSR slot, and a bitmap of 2m bits (one per slot, cleared at
/// BeginPass) marks the edges delivered this pass. An element with no slot
/// is foreign; one whose bit is already set is a duplicate. Nothing is
/// hashed or allocated per element. Space is the bitmap (m/32 words) and
/// the pass-0 record (m keys). A short pass names its first absent edge by
/// scanning `Graph::edges()`, only on the failing path.
class EdgeStreamContract final : public ModelContract {
 public:
  /// Checks edge elements against `graph`. `expected_order` (optional) is
  /// the stream's declared pass-0 edge permutation — pass a pointer for
  /// models whose seed pins the order, nullptr for arbitrary order. Both
  /// pointees must outlive the contract.
  EdgeStreamContract(const Graph* graph, ModelDescriptor descriptor,
                     const std::vector<Edge>* expected_order = nullptr);

  void BeginPass(int pass) override;
  void BeginList(VertexId u) override;
  void OnPair(VertexId u, VertexId v) override;
  void EndList(VertexId u) override;
  void EndPass(int pass) override;

  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

 private:
  // The per-element checks, shared by OnPair and the base OnList loop so
  // both deliveries observe identical positions and counters.
  void CheckEdge(VertexId u, VertexId v);
  void Report(ViolationKind kind, VertexId list, std::string detail);

  bool Seen(std::size_t slot) const {
    return (seen_[slot / 64] >> (slot % 64)) & 1;
  }
  // The keys of the edges delivered this pass, ascending.
  std::vector<EdgeKey> SeenKeys() const;
  // Marks a restored key's edge as seen; false for a key that is not an
  // edge's canonical key.
  bool MarkSeen(EdgeKey key);

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

  const std::vector<Edge>* expected_order_;  // nullable: no order promise
  std::vector<std::uint64_t> seen_;       // one bit per CSR slot, this pass
  std::vector<EdgeKey> first_pass_keys_;  // pass-0 order, for replay
};

}  // namespace stream
}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_CONTRACT_H_
