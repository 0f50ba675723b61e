// The adjacency-list model's contract checker.
//
// The model makes exactly one structural promise — every adjacency list is
// contiguous — plus, for multi-pass algorithms, the replay promise that later
// passes deliver the identical order. Every algorithm in Table 1 silently
// assumes both. `AdjacencyListContract` turns those assumptions into an
// executable contract: it consumes the same BeginPass/BeginList/OnPair/
// EndList/EndPass events an algorithm does, uses O(n) working space, and
// reports the *first* violation together with its stream position (pass,
// pair index, list). It is the adjacency-list member of the per-model
// contract hierarchy rooted at stream/contract.h — list-contiguity checks
// live ONLY here; the edge-order models get `EdgeStreamContract` instead.
//
// Detected violation classes (see `stream/fault_injection.h` for the
// matching injectors):
//   - split / interleaved adjacency lists (contiguity break) — a short list
//     that later reopens is classified as a split, not a missing pair,
//   - pairs that are not edges of the underlying graph (foreign pairs),
//   - duplicated pairs within a list,
//   - dropped pairs — including a present forward copy whose reverse copy
//     never appears (missing reverse edge),
//   - truncated passes (stream ends mid-list or short of 2m pairs),
//   - replay divergence between passes (list order or within-list order).
//
// Detection is online: foreign/duplicate pairs are flagged at the offending
// pair, dropped pairs at the end of the short list, truncation at end of
// pass, divergence at the first differing list boundary. Within-list replay
// divergence is caught by per-list order fingerprints (O(n) total), so no
// pass is ever buffered.
//
// Cost: the per-pair test is one load and one compare in a per-vertex mark
// array (n 64-bit words). BeginList(u) stamps each neighbor of u with a
// fresh list mark; a pair (u, v) on the open list passes iff v holds that
// mark, and passing moves v's mark to "seen". A foreign pair and a
// duplicate therefore fail the same compare, and the hot check allocates
// nothing, clears nothing and searches nothing. Only a failing pair reaches
// the out-of-line cold path that tells the violation classes apart (one
// `Graph::HasEdge` separates foreign from duplicate) and formats the
// diagnostic. `OnList` runs the test inline over a whole list, with no
// virtual call per pair: that is the path `RunPassesChecked` takes on a
// stream that hands out whole lists.

#ifndef CYCLESTREAM_STREAM_VALIDATOR_H_
#define CYCLESTREAM_STREAM_VALIDATOR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "snapshot/snapshot.h"
#include "stream/contract.h"
#include "stream/model.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {

/// Contract checker for adjacency-list-ordered streams. Feed it events
/// (directly, via `AdjacencyListStream::ReplayPass`, or through
/// `RunPassesChecked`), then inspect `ok()` / `violation()` / `ToStatus()`.
class AdjacencyListContract final : public ModelContract {
 public:
  /// Validates against `graph` (the ground truth for pair membership and
  /// degrees). `graph` must outlive the contract. The descriptor defaults
  /// to a plain adjacency-list model; streams with a seeded order pass
  /// their own.
  explicit AdjacencyListContract(const Graph* graph,
                                 ModelDescriptor descriptor = {});

  void BeginPass(int pass) override;
  void BeginList(VertexId u) override;
  /// One-pair OnList: both deliveries run the same checks.
  void OnPair(VertexId u, VertexId v) override;
  /// Checks the list's pairs with the mark test inline; positions,
  /// counters and the returned ok-prefix equal `list.size()` OnPair calls.
  std::size_t OnList(VertexId u, std::span<const VertexId> list) override;
  void EndList(VertexId u) override;
  void EndPass(int pass) override;

  /// Writes the contract's complete state (violations, counters, pass
  /// bookkeeping, replay fingerprints) for crash-recovery checkpoints. Only
  /// valid at adjacency-list boundaries.
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

 private:
  // A neighbor's mark once its pair is delivered. List marks count up from
  // 1, so the zero-filled array starts out holding no list's mark.
  static constexpr std::uint64_t kSeen = 0;

  // Classifies and reports a pair that failed the mark test, in the order
  // the checks have always run: interleaved, then foreign, then duplicate.
  // Cold and never inlined, so no diagnostic formatting sits in the
  // per-pair loop.
  [[gnu::cold, gnu::noinline]] void RejectPair(VertexId u, VertexId v);

  void Report(ViolationKind kind, VertexId list, std::string detail);
  void FlushPending();

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

  // A short list is only *provisionally* a missing pair: if the same list
  // reopens later in the pass, the truth is a split list. The provisional
  // violation is promoted at the next unrelated violation or at EndPass,
  // keeping its original (earlier) position.
  std::optional<Violation> pending_missing_;

  bool list_open_ = false;
  VertexId open_list_ = 0;
  std::size_t open_list_index_ = 0;  // lists begun this pass
  std::size_t pairs_in_list_ = 0;
  std::uint64_t list_fingerprint_ = 0;

  // One mark per vertex, O(n) words, allocated once. BeginList stamps the
  // open list's neighbors with list_mark_ and each valid pair moves its
  // neighbor to kSeen. Marks only grow and are 64-bit, so they never wrap
  // within a run: a stamp left by an earlier list never matches, and the
  // array is never cleared. Per-list state, so never serialized.
  std::vector<std::uint64_t> mark_;
  std::uint64_t list_mark_ = kSeen;

  std::vector<bool> closed_;  // lists already completed this pass

  // Pass-0 record for replay checking: list order and one order-sensitive
  // fingerprint per list. O(n) total.
  std::vector<VertexId> first_pass_order_;
  std::vector<std::uint64_t> first_pass_fingerprints_;
  std::size_t first_pass_pairs_ = 0;
};

/// The contract a stream's model calls for: streams that know their model
/// expose `MakeContract()` (edge-order streams return an
/// `EdgeStreamContract` wired to their declared permutation); everything
/// else is validated as a plain adjacency-list stream.
template <typename StreamT>
auto MakeContractForStream(const StreamT& stream) {
  if constexpr (requires { stream.MakeContract(); }) {
    return stream.MakeContract();
  } else {
    return AdjacencyListContract(&stream.graph(), DescriptorOf(stream));
  }
}

/// Convenience: replays `passes` passes of `stream` through a fresh
/// per-model contract and returns the resulting Status. Works for any
/// stream with `graph()` and `ReplayPass(sink)` (AdjacencyListStream,
/// ArbitraryOrderStream, RandomOrderStream, FaultInjectingStream, ...).
template <typename StreamT>
Status ValidateStream(const StreamT& stream, int passes = 1) {
  if constexpr (requires { stream.ResetPasses(); }) stream.ResetPasses();
  auto contract = MakeContractForStream(stream);
  struct Forward {
    decltype(contract)* c;
    void BeginList(VertexId u) { c->BeginList(u); }
    void OnPair(VertexId u, VertexId w) { c->OnPair(u, w); }
    void EndList(VertexId u) { c->EndList(u); }
  } sink{&contract};
  for (int pass = 0; pass < passes; ++pass) {
    contract.BeginPass(pass);
    stream.ReplayPass(sink);
    contract.EndPass(pass);
  }
  return contract.ToStatus();
}

}  // namespace stream
}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_VALIDATOR_H_
