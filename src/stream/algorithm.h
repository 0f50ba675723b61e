// Interface implemented by adjacency-list streaming algorithms.
//
// The model (paper Section 1.2): the stream is a sequence of ordered pairs
// `uv`; both `uv` and `vu` appear for every edge {u, v}; all pairs with the
// same first vertex (the adjacency list of that vertex) appear consecutively,
// in arbitrary order within the list, and the lists themselves appear in
// arbitrary order. Multi-pass algorithms may require that later passes replay
// the same ordering (the two-pass triangle algorithm does; the 4-cycle
// algorithm does not). The driver always replays one order, and a checked
// run reports a replay that diverges, so no algorithm has to declare it.
//
// Space accounting: `CurrentSpaceBytes()` must return the algorithm's live
// working-state footprint. The driver samples it at every list boundary and
// reports the peak, so the paper's space bounds are measured quantities.
// Because it runs at every boundary, and on an edge stream a list is about
// one edge, it must be O(1) in the algorithm's state (O(copies) for
// `ParallelCopies`): sums of size()/capacity() terms and running counters,
// never a walk over containers. `micro_substrate` times one sample at two
// state sizes 8x apart per estimator, and `bench_report.py validate` fails
// a ratio above 2.

#ifndef CYCLESTREAM_STREAM_ALGORITHM_H_
#define CYCLESTREAM_STREAM_ALGORITHM_H_

#include <cstddef>
#include <span>

#include "graph/types.h"
#include "obs/accounting.h"
#include "snapshot/snapshot.h"
#include "stream/model.h"
#include "util/check.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {

/// Base class for algorithms consuming adjacency-list streams.
///
/// Callback order per pass, for each adjacency list in stream order:
///   BeginList(u); the list's pairs; EndList(u).
/// Wrapped by BeginPass(p) / EndPass(p) for p = 0 .. passes()-1.
///
/// The list's pairs arrive through one of two equivalent deliveries:
///   - per-pair: OnPair(u, v) once per neighbor v, in list order;
///   - batched: a single OnListBatch(u, span-of-neighbors) call.
/// The default OnListBatch loops OnPair, so algorithms only implementing
/// OnPair behave identically under both. Overriders must uphold the
/// bit-identity contract: for any stream, batched delivery must leave the
/// algorithm in exactly the state the per-pair loop would — same estimate,
/// and same CurrentSpaceBytes() at every list boundary (which means the same
/// container mutation sequences, since space accounting reads capacities).
class StreamAlgorithm {
 public:
  virtual ~StreamAlgorithm() = default;

  /// Number of passes this algorithm takes over the stream.
  virtual int passes() const = 0;

  /// Stream models this algorithm's analysis is valid in. The driver
  /// refuses to run an algorithm over a stream whose declared model it
  /// does not accept (`RunPasses` CHECKs; the checked runners return a
  /// typed kFailedPrecondition). Default: adjacency-list order only — the
  /// historical assumption every Table 1 estimator was written under.
  /// Edge-order algorithms override (see stream/model.h's IsEdgeModel).
  virtual bool AcceptsModel(StreamModel model) const {
    return model == StreamModel::kAdjacencyList;
  }

  virtual void BeginPass(int pass) { (void)pass; }
  virtual void BeginList(VertexId u) { (void)u; }

  /// One stream element: the ordered pair `uv` (edge {u,v} seen from u).
  virtual void OnPair(VertexId u, VertexId v) = 0;

  /// The whole adjacency list of `u` in stream order — one call replacing
  /// list.size() OnPair calls (see the bit-identity contract above).
  virtual void OnListBatch(VertexId u, std::span<const VertexId> list) {
    for (VertexId v : list) OnPair(u, v);
  }

  virtual void EndList(VertexId u) { (void)u; }
  virtual void EndPass(int pass) { (void)pass; }

  /// Live working-state footprint in bytes (see file comment).
  virtual std::size_t CurrentSpaceBytes() const = 0;

  /// Accounting domain covering this algorithm's containers, or nullptr when
  /// the algorithm does not audit its allocations. When non-null the driver
  /// samples `memory_domain()->live_bytes()` alongside CurrentSpaceBytes()
  /// at every list boundary and reports both (plus their max divergence).
  virtual const obs::MemoryDomain* memory_domain() const { return nullptr; }

  /// Writes the algorithm's complete working state into `w`. Contract: a
  /// freshly constructed instance (same options and seed) that Restore()s
  /// these bytes and then consumes the remainder of the stream must be
  /// bit-identical to the uninterrupted instance — same estimate and the
  /// same CurrentSpaceBytes() at every subsequent list boundary. Only legal
  /// at adjacency-list boundaries (between EndList and the next BeginList,
  /// or at pass boundaries). The payload size is also the one-way message
  /// size the lower-bound protocol simulation charges (src/snapshot/,
  /// lowerbound/protocol.h). Implement `Fields` once and run it over a
  /// snapshot::Saver here and a snapshot::Loader in Restore (the pattern is
  /// in snapshot/codec.h); never hand-write the two directions. Default:
  /// CHECK-fails — estimators must opt in.
  virtual void Serialize(snapshot::SnapshotWriter& w) const {
    (void)w;
    CYCLESTREAM_CHECK(false && "algorithm does not implement Serialize");
  }

  /// Rebuilds state written by Serialize() on a same-options fresh instance
  /// by running the same `Fields` over a snapshot::Loader. Returns
  /// kFailedPrecondition when the snapshot's recorded options or seed
  /// disagree with this instance's or its pass field exceeds passes(), and
  /// kDataLoss when the payload runs short, a count exceeds the payload or a
  /// generator state is all zeros (see snapshot/codec.h). On error the
  /// instance must not be used further. Default: snapshots unsupported.
  virtual Status Restore(snapshot::SnapshotReader& r) {
    (void)r;
    return Status::FailedPrecondition(
        "algorithm does not support snapshot restore");
  }
};

/// CRTP mixin implementing the two-level delivery for algorithms whose
/// batch handling is exactly "one HandlePair per element" — which is every
/// estimator here. `Derived` implements `HandlePair(VertexId, VertexId)`
/// (private is fine with a `friend stream::PairDispatch<Derived>;`) and the
/// mixin provides matching OnPair/OnListBatch overrides, making the
/// bit-identity contract between the two paths true by construction instead
/// of by seven hand-copied loop bodies. The overrides are `final`: an
/// algorithm with a genuinely different batch strategy should derive from
/// StreamAlgorithm directly.
///
/// The mixin also owns the estimator's memory domain: `Derived` binds every
/// container it owns to `space_domain_`. A base subobject is constructed
/// before the derived class's members and destroyed after them, so the
/// domain outlives every container charging it whatever the member order.
template <typename Derived>
class PairDispatch : public StreamAlgorithm {
 public:
  void OnPair(VertexId u, VertexId v) final {
    static_cast<Derived*>(this)->HandlePair(u, v);
  }

  void OnListBatch(VertexId u, std::span<const VertexId> list) final {
    auto* self = static_cast<Derived*>(this);
    for (VertexId v : list) self->HandlePair(u, v);
  }

  const obs::MemoryDomain* memory_domain() const final {
    return &space_domain_;
  }

 protected:
  obs::MemoryDomain space_domain_;
};

}  // namespace stream
}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_ALGORITHM_H_

