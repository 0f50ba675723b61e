#include "stream/contract.h"

#include <algorithm>
#include <utility>

#include "snapshot/codec.h"
#include "util/check.h"

namespace cyclestream {
namespace stream {
namespace {

// "{u, v}": how every edge diagnostic names an edge.
std::string EdgeText(VertexId u, VertexId v) {
  std::string out = "{";
  out += std::to_string(u);
  out += ", ";
  out += std::to_string(v);
  out += '}';
  return out;
}

}  // namespace

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kSplitList: return "split-list";
    case ViolationKind::kInterleavedList: return "interleaved-list";
    case ViolationKind::kForeignPair: return "foreign-pair";
    case ViolationKind::kDuplicatePair: return "duplicate-pair";
    case ViolationKind::kMissingPair: return "missing-pair";
    case ViolationKind::kTruncatedPass: return "truncated-pass";
    case ViolationKind::kReplayDivergence: return "replay-divergence";
    case ViolationKind::kPermutationDivergence:
      return "permutation-divergence";
  }
  return "unknown";
}

std::string Violation::ToString() const {
  std::string out = ViolationKindName(kind);
  out += " at pass " + std::to_string(pass);
  out += " pair " + std::to_string(position);
  out += " (list " + std::to_string(list) + ")";
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

ModelContract::ModelContract(const Graph* graph, ModelDescriptor descriptor)
    : graph_(graph), descriptor_(descriptor) {
  CYCLESTREAM_CHECK(graph != nullptr);
}

void ModelContract::CountViolation(ViolationKind kind) {
  ++counters_.violations_total;
  ++counters_.violations_by_kind[static_cast<std::size_t>(kind)];
}

void ModelContract::SetFirst(Violation v) {
  if (!violation_.has_value()) violation_ = std::move(v);
}

std::size_t ModelContract::OnList(VertexId u,
                                  std::span<const VertexId> list) {
  std::size_t ok_prefix = 0;
  for (VertexId v : list) {
    // Track where ok() flips rather than deriving the prefix from the
    // violation's position: a contract may promote a violation recorded at
    // an earlier position (e.g. the adjacency model's provisional
    // missing-pair), so the position alone is not the prefix length.
    const bool was_ok = ok();
    OnPair(u, v);
    if (was_ok && ok()) ++ok_prefix;
  }
  return ok_prefix;
}

Status ModelContract::ToStatus() const {
  if (ok()) return Status::Ok();
  const Violation& v = *violation_;
  switch (v.kind) {
    case ViolationKind::kMissingPair:
    case ViolationKind::kTruncatedPass:
      return Status::DataLoss(v.ToString());
    case ViolationKind::kForeignPair:
    case ViolationKind::kDuplicatePair:
      return Status::InvalidArgument(v.ToString());
    default:
      return Status::FailedPrecondition(v.ToString());
  }
}

void ModelContract::ExportMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->GetCounter("validator.events_checked")
      .Increment(counters_.events_checked);
  metrics->GetCounter("validator.passes_checked")
      .Increment(counters_.passes_checked);
  metrics->GetCounter("validator.lists_checked")
      .Increment(counters_.lists_checked);
  metrics->GetCounter("validator.pairs_checked")
      .Increment(counters_.pairs_checked);
  metrics->GetCounter("validator.violations_total")
      .Increment(counters_.violations_total);
  for (std::size_t i = 0; i < kNumViolationKinds; ++i) {
    if (counters_.violations_by_kind[i] == 0) continue;
    metrics
        ->GetCounter(std::string("validator.violations.") +
                     ViolationKindName(static_cast<ViolationKind>(i)))
        .Increment(counters_.violations_by_kind[i]);
  }
}

EdgeStreamContract::EdgeStreamContract(const Graph* graph,
                                       ModelDescriptor descriptor,
                                       const std::vector<Edge>* expected_order)
    : ModelContract(graph, descriptor),
      expected_order_(expected_order),
      seen_((2 * graph->num_edges() + 63) / 64) {
  CYCLESTREAM_CHECK(IsEdgeModel(descriptor.model));
  if (expected_order_ != nullptr) {
    CYCLESTREAM_CHECK_EQ(expected_order_->size(), graph_->num_edges());
  }
  first_pass_keys_.reserve(graph_->num_edges());
}

void EdgeStreamContract::Report(ViolationKind kind, VertexId list,
                                std::string detail) {
  CountViolation(kind);  // every observed violation, not just the first
  Violation v;
  v.kind = kind;
  v.pass = pass_;
  v.position = position_;
  v.list = list;
  v.detail = std::move(detail);
  SetFirst(std::move(v));
}

void EdgeStreamContract::BeginPass(int pass) {
  ++counters_.events_checked;
  ++counters_.passes_checked;
  CYCLESTREAM_CHECK(!in_pass_);
  CYCLESTREAM_CHECK_EQ(pass, pass_ + 1);  // consecutive, starting at 0
  pass_ = pass;
  in_pass_ = true;
  position_ = 0;
  std::fill(seen_.begin(), seen_.end(), 0);
}

void EdgeStreamContract::BeginList(VertexId u) {
  // u-runs are packaging, not promises: the only run-level check is that
  // the run vertex is one the graph knows about.
  ++counters_.events_checked;
  ++counters_.lists_checked;
  CYCLESTREAM_CHECK(in_pass_);
  if (static_cast<std::size_t>(u) >= graph_->num_vertices()) {
    Report(ViolationKind::kForeignPair, u,
           "run of unknown vertex " + std::to_string(u));
  }
}

void EdgeStreamContract::OnPair(VertexId u, VertexId v) { CheckEdge(u, v); }

void EdgeStreamContract::CheckEdge(VertexId u, VertexId v) {
  ++counters_.events_checked;
  ++counters_.pairs_checked;
  CYCLESTREAM_CHECK(in_pass_);
  const std::size_t slot = graph_->EdgeSlot(u, v);
  if (slot == Graph::kNoSlot) {
    Report(ViolationKind::kForeignPair, u,
           "element " + EdgeText(u, v) + " is not an edge of the graph");
    ++position_;
    return;
  }
  std::uint64_t& word = seen_[slot / 64];
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if ((word & bit) != 0) {
    Report(ViolationKind::kDuplicatePair, u,
           "edge " + EdgeText(u, v) +
               " delivered twice in one pass (second copy at position " +
               std::to_string(position_) + ")");
    ++position_;
    return;
  }
  word |= bit;
  const EdgeKey key = MakeEdgeKey(u, v);
  if (pass_ == 0) {
    if (expected_order_ != nullptr && ok()) {
      if (position_ >= expected_order_->size() ||
          MakeEdgeKey((*expected_order_)[position_].u,
                      (*expected_order_)[position_].v) != key) {
        const std::string expected =
            position_ < expected_order_->size()
                ? EdgeText((*expected_order_)[position_].u,
                           (*expected_order_)[position_].v)
                : "<end of stream>";
        Report(ViolationKind::kPermutationDivergence, u,
               "position " + std::to_string(position_) + " delivers edge " +
                   EdgeText(u, v) + " where the declared permutation has " +
                   expected);
      }
    }
    first_pass_keys_.push_back(key);
  } else if (ok()) {
    if (position_ >= first_pass_keys_.size() ||
        first_pass_keys_[position_] != key) {
      Report(ViolationKind::kReplayDivergence, u,
             "pass " + std::to_string(pass_) + " delivers edge " +
                 EdgeText(u, v) + " at position " +
                 std::to_string(position_) +
                 " where pass 0 delivered a different element");
    }
  }
  ++position_;
}

void EdgeStreamContract::EndList(VertexId u) {
  ++counters_.events_checked;
  CYCLESTREAM_CHECK(in_pass_);
  (void)u;  // no run-boundary promises to check
}

void EdgeStreamContract::EndPass(int pass) {
  ++counters_.events_checked;
  CYCLESTREAM_CHECK(in_pass_);
  CYCLESTREAM_CHECK_EQ(pass, pass_);
  const std::size_t m = graph_->num_edges();
  if (ok() && position_ < m) {
    // Exactly-once means every edge: a short pass is a dropped edge. Name
    // one for the diagnostic (O(m) scan, only on the already-failing path).
    std::string missing = "<unknown>";
    for (const Edge& e : graph_->edges()) {
      if (!Seen(graph_->EdgeSlot(e.u, e.v))) {
        missing = EdgeText(e.u, e.v);
        break;
      }
    }
    Report(ViolationKind::kMissingPair, 0,
           "pass delivered " + std::to_string(position_) + " of " +
               std::to_string(m) + " edges (missing edge " + missing + ")");
  } else if (ok() && pass_ > 0 && position_ != first_pass_keys_.size()) {
    Report(ViolationKind::kReplayDivergence, 0,
           "pass delivered " + std::to_string(position_) +
               " elements where pass 0 delivered " +
               std::to_string(first_pass_keys_.size()));
  }
  in_pass_ = false;
}

std::vector<EdgeKey> EdgeStreamContract::SeenKeys() const {
  std::vector<EdgeKey> keys;
  for (const Edge& e : graph_->edges()) {  // sorted: keys come out ascending
    if (Seen(graph_->EdgeSlot(e.u, e.v))) keys.push_back(MakeEdgeKey(e));
  }
  return keys;
}

bool EdgeStreamContract::MarkSeen(EdgeKey key) {
  // A canonical key holds the smaller endpoint in its high word.
  if (EdgeKeyLo(key) > EdgeKeyHi(key)) return false;
  const std::size_t slot = graph_->EdgeSlot(EdgeKeyLo(key), EdgeKeyHi(key));
  if (slot == Graph::kNoSlot) return false;
  seen_[slot / 64] |= std::uint64_t{1} << (slot % 64);
  return true;
}

// Version 3 stores the seen edges as keys and the pass-0 record as a count
// and keys. Versions 1 and 2 kept the edges in a hash set and wrote its
// bucket count after them, and wrote the record's capacity after its
// count; a restore reads both and discards them, so no stored number sizes
// anything.
void EdgeStreamContract::Fields(auto& self, auto& ar) {
  CommonFields(self, ar);
  ar.Option(self.expected_order_ != nullptr, "declared permutation");
  ar.Marks([&self] { return self.SeenKeys(); },
           [&self](auto key) { return self.MarkSeen(key); });
  ar.Dropped(3);  // the set's bucket count
  ar.Size(self.first_pass_keys_, sizeof(EdgeKey));
  ar.Dropped(3);  // the record's capacity
  for (auto& key : self.first_pass_keys_) ar.U64(key);
}

void EdgeStreamContract::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status EdgeStreamContract::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

}  // namespace stream
}  // namespace cyclestream
