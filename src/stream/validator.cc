#include "stream/validator.h"

#include <algorithm>
#include <utility>

#include "snapshot/codec.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace stream {

namespace {

// Order-sensitive fingerprint of a list's pair sequence: position is mixed
// in, so permuting a list changes the fingerprint (with 64-bit collision
// probability). Used for within-list replay checking in O(1) per list.
std::uint64_t ExtendFingerprint(std::uint64_t fp, VertexId v,
                                std::size_t index) {
  return Mix128To64(fp, Mix128To64(v, static_cast<std::uint64_t>(index)));
}

}  // namespace

AdjacencyListContract::AdjacencyListContract(const Graph* graph,
                                             ModelDescriptor descriptor)
    : ModelContract(graph, descriptor) {
  CYCLESTREAM_CHECK(!IsEdgeModel(descriptor.model));
  closed_.assign(graph_->num_vertices(), false);
  mark_.assign(graph_->num_vertices(), kSeen);
  first_pass_order_.reserve(graph_->num_vertices());
  first_pass_fingerprints_.reserve(graph_->num_vertices());
}

void AdjacencyListContract::Report(ViolationKind kind, VertexId list,
                                   std::string detail) {
  CountViolation(kind);  // every observed violation, not just the first
  if (violation().has_value()) return;  // keep the first
  // A provisional missing-pair is chronologically earlier than the current
  // event, so it wins (unless the caller discarded it as a split first).
  if (pending_missing_.has_value()) {
    FlushPending();
    return;
  }
  Violation v;
  v.kind = kind;
  v.pass = pass_;
  v.position = position_;
  v.list = list;
  v.detail = std::move(detail);
  SetFirst(std::move(v));
}

void AdjacencyListContract::FlushPending() {
  if (pending_missing_.has_value()) {
    // Only now is the stash a confirmed drop (a reopen would have
    // discarded it as a split), so only now does it count.
    CountViolation(ViolationKind::kMissingPair);
    SetFirst(std::move(*pending_missing_));
  }
  pending_missing_.reset();
}

void AdjacencyListContract::BeginPass(int pass) {
  ++counters_.events_checked;
  ++counters_.passes_checked;
  CYCLESTREAM_CHECK(!in_pass_);
  CYCLESTREAM_CHECK_EQ(pass, pass_ + 1);  // consecutive, starting at 0
  pass_ = pass;
  in_pass_ = true;
  position_ = 0;
  list_open_ = false;
  open_list_index_ = 0;
  closed_.assign(graph_->num_vertices(), false);
}

void AdjacencyListContract::BeginList(VertexId u) {
  ++counters_.events_checked;
  ++counters_.lists_checked;
  CYCLESTREAM_CHECK(in_pass_);
  if (list_open_) {
    Report(ViolationKind::kInterleavedList, u,
           "list " + std::to_string(u) + " begins while list " +
               std::to_string(open_list_) + " is still open");
  }
  if (static_cast<std::size_t>(u) >= graph_->num_vertices()) {
    Report(ViolationKind::kForeignPair, u,
           "list of unknown vertex " + std::to_string(u));
  } else if (closed_[u]) {
    // The short first segment of this list was stashed as a provisional
    // missing-pair; the reopen proves the real fault is a split.
    if (pending_missing_.has_value() && pending_missing_->list == u) {
      pending_missing_.reset();
    }
    Report(ViolationKind::kSplitList, u,
           "list " + std::to_string(u) +
               " reopened after it ended (contiguity break)");
  }
  if (pass_ > 0 && ok()) {
    if (open_list_index_ >= first_pass_order_.size() ||
        first_pass_order_[open_list_index_] != u) {
      const std::string expected =
          open_list_index_ < first_pass_order_.size()
              ? std::to_string(first_pass_order_[open_list_index_])
              : "<end of pass>";
      Report(ViolationKind::kReplayDivergence, u,
             "pass " + std::to_string(pass_) + " streams list " +
                 std::to_string(u) + " where pass 0 streamed " + expected);
    }
  }
  list_open_ = true;
  open_list_ = u;
  pairs_in_list_ = 0;
  list_fingerprint_ = 0;
  // A fresh mark makes every stamp of an earlier list stale. An unknown
  // vertex stamps nothing, so each of its pairs fails the mark test.
  ++list_mark_;
  if (static_cast<std::size_t>(u) < mark_.size()) {
    for (VertexId w : graph_->neighbors(u)) mark_[w] = list_mark_;
  }
}

void AdjacencyListContract::OnPair(VertexId u, VertexId v) {
  OnList(u, std::span<const VertexId>(&v, 1));
}

std::size_t AdjacencyListContract::OnList(VertexId u,
                                          std::span<const VertexId> list) {
  CYCLESTREAM_CHECK(in_pass_);
  counters_.events_checked += list.size();
  counters_.pairs_checked += list.size();
  // Every rejected pair records a violation, so the ok-prefix ends at the
  // first one (and is empty once the contract has failed).
  std::size_t ok_prefix = ok() ? list.size() : 0;
  // Pairs outside the open list match no mark. The loop works on locals:
  // a store to the mark array could otherwise alias the members.
  const bool open = list_open_ && u == open_list_;
  std::uint64_t* const mark = mark_.data();
  const std::size_t n = mark_.size();
  const std::uint64_t want = list_mark_;
  const std::size_t start = position_;
  const std::size_t index = pairs_in_list_;
  std::uint64_t fingerprint = list_fingerprint_;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const VertexId v = list[i];
    if (open && v < n && mark[v] == want) [[likely]] {
      mark[v] = kSeen;
    } else {
      position_ = start + i;  // the violation's position
      RejectPair(u, v);
      ok_prefix = std::min(ok_prefix, i);
    }
    fingerprint = ExtendFingerprint(fingerprint, v, index + i);
  }
  list_fingerprint_ = fingerprint;
  pairs_in_list_ = index + list.size();
  position_ = start + list.size();
  return ok_prefix;
}

void AdjacencyListContract::RejectPair(VertexId u, VertexId v) {
  const std::string pair =
      "pair (" + std::to_string(u) + ", " + std::to_string(v) + ")";
  if (!list_open_ || u != open_list_) {
    Report(ViolationKind::kInterleavedList, u,
           pair + " delivered outside list " + std::to_string(u) +
               " (contiguity break)");
  } else if (!graph_->HasEdge(u, v)) {
    Report(ViolationKind::kForeignPair, u,
           pair + " is not an edge of the graph");
  } else {
    // An edge of the open list whose neighbor no longer holds the list's
    // mark was delivered earlier in this list.
    Report(ViolationKind::kDuplicatePair, u,
           pair + " delivered twice in one list");
  }
}

void AdjacencyListContract::EndList(VertexId u) {
  ++counters_.events_checked;
  CYCLESTREAM_CHECK(in_pass_);
  if (!list_open_ || u != open_list_) {
    Report(ViolationKind::kInterleavedList, u,
           "EndList(" + std::to_string(u) + ") without matching BeginList");
    list_open_ = false;
    return;
  }
  const bool known = static_cast<std::size_t>(u) < graph_->num_vertices();
  if (known && !closed_[u] && pairs_in_list_ < graph_->degree(u) && ok() &&
      !pending_missing_.has_value()) {
    // Identify a missing neighbor for the diagnostic (O(deg) once, only on
    // the already-failing path). Stashed, not reported: if this list reopens
    // later in the pass the truth is a split, not a drop.
    std::string missing;
    for (VertexId w : graph_->neighbors(u)) {
      if (mark_[w] == list_mark_) {  // stamped, never delivered
        missing = std::to_string(w);
        break;
      }
    }
    Violation v;
    v.kind = ViolationKind::kMissingPair;
    v.pass = pass_;
    v.position = position_;
    v.list = u;
    v.detail = "list " + std::to_string(u) + " ended with " +
               std::to_string(pairs_in_list_) + " of " +
               std::to_string(graph_->degree(u)) + " pairs (missing neighbor " +
               missing + ")";
    pending_missing_ = std::move(v);
  }
  if (pass_ == 0) {
    first_pass_order_.push_back(u);
    first_pass_fingerprints_.push_back(list_fingerprint_);
  } else if (ok() && open_list_index_ < first_pass_fingerprints_.size() &&
             first_pass_order_[open_list_index_] == u &&
             first_pass_fingerprints_[open_list_index_] !=
                 list_fingerprint_) {
    Report(ViolationKind::kReplayDivergence, u,
           "within-list order of list " + std::to_string(u) +
               " differs from pass 0");
  }
  if (known) closed_[u] = true;
  list_open_ = false;
  ++open_list_index_;
}

void AdjacencyListContract::EndPass(int pass) {
  ++counters_.events_checked;
  CYCLESTREAM_CHECK(in_pass_);
  CYCLESTREAM_CHECK_EQ(pass, pass_);
  FlushPending();  // a short list that never reopened really is a drop
  if (list_open_) {
    Report(ViolationKind::kTruncatedPass, open_list_,
           "pass ended inside list " + std::to_string(open_list_));
    list_open_ = false;
  } else if (ok() && position_ < 2 * graph_->num_edges()) {
    Report(ViolationKind::kTruncatedPass, 0,
           "pass delivered " + std::to_string(position_) + " of " +
               std::to_string(2 * graph_->num_edges()) + " pairs");
  } else if (ok() && open_list_index_ < graph_->num_vertices()) {
    // All 2m pairs arrived but some adjacency lists never did — possible
    // only when the cut lands on a list boundary and every remaining list
    // is empty. Still a truncation: the model promises one list per vertex.
    Report(ViolationKind::kTruncatedPass, 0,
           "pass delivered " + std::to_string(open_list_index_) + " of " +
               std::to_string(graph_->num_vertices()) + " adjacency lists");
  } else if (pass_ > 0 && ok() &&
             open_list_index_ != first_pass_order_.size()) {
    Report(ViolationKind::kReplayDivergence, 0,
           "pass streamed " + std::to_string(open_list_index_) +
               " lists where pass 0 streamed " +
               std::to_string(first_pass_order_.size()));
  }
  if (pass_ == 0) first_pass_pairs_ = position_;
  in_pass_ = false;
}

void AdjacencyListContract::Fields(auto& self, auto& ar) {
  CommonFields(self, ar);
  internal::ViolationFields(self.pending_missing_, ar);
  // Only list-boundary snapshots are defined (no list may be open); the
  // per-list transients (fingerprint, pair count, marks) are therefore
  // dead state and are not serialized. A restored contract's first list
  // draws a fresh mark like any other.
  CYCLESTREAM_CHECK(!self.list_open_);
  ar.U64(self.open_list_index_);
  ar.Option(self.closed_.size(), "closed-list bitmap size");
  for (std::size_t i = 0; i < self.closed_.size(); i += 8) {
    const std::size_t bits = std::min<std::size_t>(8, self.closed_.size() - i);
    std::uint8_t packed = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (self.closed_[i + b]) packed |= static_cast<std::uint8_t>(1u << b);
    }
    ar.U8(packed);
    if constexpr (ar.kLoading) {
      for (std::size_t b = 0; b < bits; ++b) {
        self.closed_[i + b] = (packed >> b) & 1;
      }
    }
  }
  // One count, then the list order and one fingerprint per list.
  ar.Size(self.first_pass_order_, sizeof(VertexId) + sizeof(std::uint64_t));
  if constexpr (ar.kLoading) {
    self.first_pass_fingerprints_.resize(self.first_pass_order_.size());
  }
  for (auto& u : self.first_pass_order_) ar.U32(u);
  for (auto& fp : self.first_pass_fingerprints_) ar.U64(fp);
  ar.U64(self.first_pass_pairs_);
}

void AdjacencyListContract::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status AdjacencyListContract::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

}  // namespace stream
}  // namespace cyclestream
